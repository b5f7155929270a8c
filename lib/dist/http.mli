(** A minimal HTTP/1.0 layer for the coordinator's read-only status
    endpoint — no dependency beyond [Unix], GET only, one request per
    connection.

    The server side owns no loop: the coordinator merges {!fds} into
    its existing [select] set and forwards the readable ones to
    {!handle}, which accepts, reads, asks [respond] for the body and
    closes. Response {e content} never originates here — that is
    {!Status.respond}'s job — so this module stays pure plumbing and
    the lint policy confines socket IO to the driver layer.

    The client side ({!get}) backs [ffault campaign status]. *)

type server

type response = Status.response = { code : int; content_type : string; body : string }

val listen : Transport.endpoint -> (server, string) result
(** Bind and listen through {!Transport.listen} (a stale Unix-socket
    file is unlinked first, and again on {!close}); its error, which
    names the endpoint, comes back prefixed ["http: "]. *)

val fds : server -> Unix.file_descr list
(** The listener plus any half-read client connections — merge these
    into the driver's [select] read set. Empty after {!close}. *)

val handle :
  server ->
  readable:Unix.file_descr list ->
  respond:(string -> response) ->
  unit
(** Process the fds [select] reported readable, ignoring any that are
    not ours: accept new connections, buffer request bytes, and once a
    request line is in, write [respond path] and close. Bad methods get
    a 405, oversized requests a 400; peers that vanish are dropped
    silently. *)

val close : server -> unit
(** Idempotent; closes the listener and every pending connection. *)

val get : Transport.endpoint -> path:string -> (response, string) result
(** One blocking GET: connect, request [path], read to EOF, parse the
    status code, content type and body. *)
