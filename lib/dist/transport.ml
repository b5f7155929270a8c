module Metrics = Ffault_telemetry.Metrics
module Clock = Ffault_runtime.Clock

let m_bytes_sent = Metrics.counter "dist.bytes_sent"
let m_bytes_recv = Metrics.counter "dist.bytes_recv"
let m_frames_sent = Metrics.counter "dist.frames_sent"
let m_frames_recv = Metrics.counter "dist.frames_recv"
let m_writes = Metrics.counter "dist.writes"
let m_reads = Metrics.counter "dist.reads"

type endpoint = Unix_sock of string | Tcp of string * int

(* A port string must be all digits (int_of_string_opt would accept
   "0x50", "1_0" and "+80" — none of which anyone means on a CLI). *)
let port_of_string port =
  if port = "" then Error "endpoint: tcp: missing port after host"
  else if not (String.for_all (fun c -> c >= '0' && c <= '9') port) then
    Error (Printf.sprintf "endpoint: tcp port %S is not a number" port)
  else
    match int_of_string_opt port with
    | Some p when p > 0 && p < 65536 -> Ok p
    | _ -> Error (Printf.sprintf "endpoint: tcp port %S out of range 1-65535" port)

(* [HOST] / [[v6]] with the port already split off. *)
let host_of_string host =
  let n = String.length host in
  if n = 0 then Error "endpoint: tcp: empty host"
  else if host.[0] = '[' then
    if n >= 3 && host.[n - 1] = ']' then Ok (String.sub host 1 (n - 2))
    else Error (Printf.sprintf "endpoint: bad IPv6 host %S — expected [ADDR]" host)
  else if String.contains host ':' then
    Error
      (Printf.sprintf "endpoint: ambiguous host %S — bracket IPv6 as tcp:[ADDR]:PORT"
         host)
  else Ok host

let endpoint_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "endpoint: unix: needs a socket path"
      else Ok (Unix_sock path)
  | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error "endpoint: tcp: needs HOST:PORT"
      | Some j -> (
          let host = String.sub rest 0 j in
          let port = String.sub rest (j + 1) (String.length rest - j - 1) in
          match host_of_string host with
          | Error _ as e -> e
          | Ok host -> (
              match port_of_string port with
              | Error _ as e -> e
              | Ok p -> Ok (Tcp (host, p)))))
  | _ ->
      Error
        (Printf.sprintf "endpoint: %S — expected unix:PATH or tcp:HOST:PORT" s)

let endpoint_to_string = function
  | Unix_sock path -> "unix:" ^ path
  | Tcp (host, port) when String.contains host ':' ->
      Printf.sprintf "tcp:[%s]:%d" host port
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let pp_endpoint ppf e = Fmt.string ppf (endpoint_to_string e)

let sockaddr_of = function
  | Unix_sock path -> Ok (Unix.ADDR_UNIX path)
  | Tcp (host, port) -> (
      match Unix.gethostbyname host with
      | { Unix.h_addr_list = [||]; _ } ->
          Error (Printf.sprintf "endpoint: no address for host %S" host)
      | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))
      | exception Not_found -> (
          match Unix.inet_addr_of_string host with
          | addr -> Ok (Unix.ADDR_INET (addr, port))
          | exception Failure _ -> Error (Printf.sprintf "endpoint: unknown host %S" host)))

let domain_of = Unix.domain_of_sockaddr

(* ---- connections ---- *)

type conn = {
  c_fd : Unix.file_descr;
  c_peer : string;
  send_lock : Mutex.t;
  (* frames pushed and not yet written: [out_frames] of them in the
     first [out_len] bytes of [out]; guarded by [send_lock] *)
  out : Bytes.t;
  mutable out_len : int;
  mutable out_frames : int;
  decoder : Wire.Decoder.t;
  read_buf : Bytes.t;
  mutable stash : Wire.frame list;  (* decoded, not yet returned by recv_msg *)
  mutable closed : bool;
}

let io_buffer_bytes = 65_536

let conn_of_fd ~peer fd =
  {
    c_fd = fd;
    c_peer = peer;
    send_lock = Mutex.create ();
    out = Bytes.create io_buffer_bytes;
    out_len = 0;
    out_frames = 0;
    decoder = Wire.Decoder.create ();
    read_buf = Bytes.create io_buffer_bytes;
    stash = [];
    closed = false;
  }

let fd c = c.c_fd
let peer c = c.c_peer

let close c =
  if not c.closed then begin
    c.closed <- true;
    try Unix.close c.c_fd with Unix.Unix_error _ -> ()
  end

(* Frames per group write: the journal's group size, so a group the
   coordinator reads fills about one journal group. *)
let group_frames = Ffault_campaign.Journal.group_size

(* Write the first [len] bytes of [bytes], which hold [frames] frames.
   The caller holds [send_lock]. *)
let write c bytes len ~frames =
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.single_write c.c_fd bytes !off (len - !off);
    Metrics.incr m_writes
  done;
  Metrics.add m_bytes_sent len;
  Metrics.add m_frames_sent frames

let write_pending c =
  if c.out_frames > 0 then begin
    let len = c.out_len and frames = c.out_frames in
    c.out_len <- 0;
    c.out_frames <- 0;
    write c c.out len ~frames
  end

(* Add [msg]'s frame to the pending group, writing the group out first
   if the frame would not fit; a frame larger than the whole buffer is
   written on its own. Then [write_pending] if [flush]. A failed write
   has already emptied the group: its frames are lost with the
   connection. *)
let enqueue c msg ~flush =
  let bytes = Wire.encode (Codec.to_frame msg) in
  let n = String.length bytes in
  Mutex.lock c.send_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock c.send_lock)
    (fun () ->
      if c.closed then Error "send: connection closed"
      else
        match
          if c.out_len + n > Bytes.length c.out then write_pending c;
          if n > Bytes.length c.out then write c (Bytes.unsafe_of_string bytes) n ~frames:1
          else begin
            Bytes.blit_string bytes 0 c.out c.out_len n;
            c.out_len <- c.out_len + n;
            c.out_frames <- c.out_frames + 1
          end;
          if flush || c.out_frames >= group_frames then write_pending c
        with
        | () -> Ok ()
        | exception Unix.Unix_error (e, _, _) ->
            Error (Printf.sprintf "send: %s" (Unix.error_message e)))

let send_msg c msg = enqueue c msg ~flush:true
let push_msg c msg = enqueue c msg ~flush:false

let drain_frames c =
  let rec pop acc =
    match Wire.Decoder.next c.decoder with
    | Ok (Some f) ->
        Metrics.incr m_frames_recv;
        pop (f :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error m -> Error m
  in
  pop []

let recv_step c =
  match Unix.read c.c_fd c.read_buf 0 (Bytes.length c.read_buf) with
  | 0 -> `Closed
  | n -> (
      Metrics.incr m_reads;
      Metrics.add m_bytes_recv n;
      (* [feed] copies the range before the next read reuses the buffer *)
      Wire.Decoder.feed c.decoder ~len:n (Bytes.unsafe_to_string c.read_buf);
      match drain_frames c with
      | Ok frames -> `Frames frames
      | Error m -> `Error m)
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> `Closed
  | exception Unix.Unix_error (e, _, _) ->
      `Error (Printf.sprintf "recv: %s" (Unix.error_message e))

(* A conn has exactly one reader (the worker's main loop, or the
   coordinator's select loop — which uses recv_step directly), so the
   stash needs no lock. *)
let rec recv_msg c =
  match c.stash with
  | f :: rest -> (
      c.stash <- rest;
      match Codec.of_frame f with Ok m -> `Msg m | Error e -> `Error e)
  | [] -> (
      match recv_step c with
      | `Frames fs ->
          c.stash <- fs;
          recv_msg c
      | (`Closed | `Error _) as other -> other)

(* [recv_msg] with a deadline. A frame already in the stash is served
   without touching the fd; otherwise [select] until the deadline, so a
   partial frame stays in the decoder for the next call. Each [select]
   waits at most [max_select_s], which keeps a huge but finite timeout
   out of the C timeval conversion. *)
let max_select_s = 3600.0

let recv_within c ~timeout_s =
  if (not (Float.is_finite timeout_s)) || timeout_s < 0.0 then
    invalid_arg "Transport.recv_within: timeout_s must be finite and non-negative";
  let deadline = Clock.now_s Clock.monotonic +. timeout_s in
  let rec wait () =
    match c.stash with
    | _ :: _ -> recv_msg c
    | [] -> (
        let remaining = deadline -. Clock.now_s Clock.monotonic in
        if remaining <= 0.0 then `Timeout
        else
          match Unix.select [ c.c_fd ] [] [] (Float.min remaining max_select_s) with
          | [], _, _ -> wait ()
          | _ -> (
              match recv_step c with
              | `Frames fs ->
                  c.stash <- fs;
                  wait ()
              | (`Closed | `Error _) as other -> other)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
          | exception Unix.Unix_error (e, _, _) ->
              `Error (Printf.sprintf "recv: %s" (Unix.error_message e)))
  in
  wait ()

(* ---- client ---- *)

let connect endpoint =
  match sockaddr_of endpoint with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
      match
        Unix.connect fd addr;
        (match addr with
        | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
        | Unix.ADDR_UNIX _ -> ())
      with
      | () -> Ok (conn_of_fd ~peer:(endpoint_to_string endpoint) fd)
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "connect %s: %s" (endpoint_to_string endpoint)
               (Unix.error_message e)))

(* ---- server ---- *)

type listener = { l_fd : Unix.file_descr; l_endpoint : endpoint; mutable l_closed : bool }

let listen ?(backlog = 64) endpoint =
  (match endpoint with
  | Unix_sock path when Sys.file_exists path -> (
      try Unix.unlink path with Unix.Unix_error _ -> ())
  | _ -> ());
  match sockaddr_of endpoint with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket (domain_of addr) Unix.SOCK_STREAM 0 in
      match
        Unix.setsockopt fd Unix.SO_REUSEADDR true;
        Unix.bind fd addr;
        Unix.listen fd backlog
      with
      | () -> Ok { l_fd = fd; l_endpoint = endpoint; l_closed = false }
      | exception Unix.Unix_error (e, _, _) ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Error
            (Printf.sprintf "listen %s: %s" (endpoint_to_string endpoint)
               (Unix.error_message e)))

let listener_fd l = l.l_fd

let accept l =
  match Unix.accept l.l_fd with
  | fd, addr ->
      (match addr with
      | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.TCP_NODELAY true
      | Unix.ADDR_UNIX _ -> ());
      let peer =
        match addr with
        | Unix.ADDR_UNIX _ -> endpoint_to_string l.l_endpoint
        | Unix.ADDR_INET (a, p) ->
            Printf.sprintf "tcp:%s:%d" (Unix.string_of_inet_addr a) p
      in
      Ok (conn_of_fd ~peer fd)
  | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "accept: %s" (Unix.error_message e))

let close_listener l =
  if not l.l_closed then begin
    l.l_closed <- true;
    (try Unix.close l.l_fd with Unix.Unix_error _ -> ());
    match l.l_endpoint with
    | Unix_sock path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
    | Tcp _ -> ()
  end
