(** Socket transport for the distributed campaign: Unix-domain and TCP,
    framed by {!Wire}.

    Endpoints parse from the CLI syntax [unix:PATH] / [tcp:HOST:PORT].
    A {!conn} owns one socket, a send mutex (the worker's heartbeat
    thread and its result stream interleave safely) and an incremental
    {!Wire.Decoder}; every byte in or out bumps the [dist.bytes_*]
    counters, so traffic shows up in the coordinator's
    [telemetry.json]. *)

type endpoint = Unix_sock of string | Tcp of string * int

val endpoint_of_string : string -> (endpoint, string) result
(** [unix:PATH] or [tcp:HOST:PORT]; IPv6 hosts are bracketed,
    [tcp:[::1]:9000]. Rejects empty hosts, non-numeric ports and ports
    outside 1–65535 here, with an error naming the offending piece,
    rather than failing later at connect. *)

val endpoint_to_string : endpoint -> string
val pp_endpoint : Format.formatter -> endpoint -> unit

val sockaddr_of : endpoint -> (Unix.sockaddr, string) result
(** Resolve to a socket address (TCP hosts via [gethostbyname], then as
    a literal). Exposed for {!Http}, which speaks raw HTTP over its own
    sockets rather than {!Wire} frames. *)

(** {2 Connections} *)

type conn

val conn_of_fd : peer:string -> Unix.file_descr -> conn
(** Wrap an already-connected stream socket (e.g. one end of a
    [Unix.socketpair]); the conn owns it from here on. *)

val fd : conn -> Unix.file_descr
val peer : conn -> string
(** Human-readable peer address, for logs and the Workers report. *)

val send_msg : conn -> Codec.msg -> (unit, string) result
(** Blocking, serialized by the connection's mutex; [Error] on a broken
    pipe (the peer died — the caller drops the connection). *)

val recv_step :
  conn -> [ `Frames of Wire.frame list | `Closed | `Error of string ]
(** One [read] syscall (blocking until the peer writes or closes — on
    the coordinator, call only after [select] reports the fd readable),
    fed to the decoder; returns every frame it completed (possibly
    none: [`Frames []]). [`Closed] is a clean EOF. *)

val recv_msg : conn -> [ `Msg of Codec.msg | `Closed | `Error of string ]
(** Blocking: pump {!recv_step} until one full message decodes. *)

val recv_within :
  conn ->
  timeout_s:float ->
  [ `Msg of Codec.msg | `Closed | `Error of string | `Timeout ]
(** {!recv_msg} bounded by [timeout_s] seconds on the monotonic clock.
    A message already decoded is returned without touching the socket;
    otherwise [select] waits for bytes until the deadline ([EINTR] is
    retried). A frame cut short by the deadline stays in the decoder and
    completes on a later call. [`Timeout] means no full message arrived.
    @raise Invalid_argument if [timeout_s] is negative or not finite. *)

val close : conn -> unit
(** Idempotent. *)

(** {2 Client} *)

val connect : endpoint -> (conn, string) result

(** {2 Server} *)

type listener

val listen : ?backlog:int -> endpoint -> (listener, string) result
(** Bind and listen. A Unix-domain endpoint unlinks any stale socket
    file first and unlinks it again on {!close_listener}. *)

val listener_fd : listener -> Unix.file_descr
val accept : listener -> (conn, string) result
val close_listener : listener -> unit
