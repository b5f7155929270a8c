(* A deliberately tiny HTTP/1.0 server and client — just enough to
   scrape the coordinator's read-only status endpoint with curl or the
   [campaign status] CLI, with no dependency beyond Unix.

   Server model: the coordinator's select loop owns the fds. We expose
   them ([fds]), it tells us which became readable ([handle]), we
   accept/read/respond/close. One request per connection (we always
   answer [Connection: close]), GET only, responses written with a
   short blocking send — bodies are a few KB of JSON, peers are
   operators on the same host or LAN. *)

type pending = { p_fd : Unix.file_descr; p_buf : Buffer.t }

type server = {
  listener : Transport.listener;
  pendings : (Unix.file_descr, pending) Hashtbl.t;
  mutable s_closed : bool;
}

type response = Status.response = { code : int; content_type : string; body : string }

let max_request_bytes = 8192

(* The listening socket is Transport's; only the accepted connections
   are ours, since an HTTP peer needs no wire decoder. *)
let listen endpoint =
  match Transport.listen ~backlog:16 endpoint with
  | Ok listener -> Ok { listener; pendings = Hashtbl.create 8; s_closed = false }
  | Error m -> Error ("http: " ^ m)

let fds t =
  if t.s_closed then []
  else
    Transport.listener_fd t.listener
    :: Hashtbl.fold (fun fd _ acc -> fd :: acc) t.pendings []

let drop t (p : pending) =
  Hashtbl.remove t.pendings p.p_fd;
  try Unix.close p.p_fd with Unix.Unix_error _ -> ()

let status_text = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | _ -> "Error"

let write_all fd s =
  let len = String.length s in
  let b = Bytes.unsafe_of_string s in
  let rec go off =
    if off < len then
      match Unix.write fd b off (len - off) with
      | 0 -> ()
      | n -> go (off + n)
      | exception Unix.Unix_error _ -> ()
  in
  go 0

let send_response fd (r : response) =
  write_all fd
    (Printf.sprintf
       "HTTP/1.0 %d %s\r\ncontent-type: %s\r\ncontent-length: %d\r\nconnection: \
        close\r\n\r\n%s"
       r.code (status_text r.code) r.content_type (String.length r.body) r.body)

(* The request line up to the first CRLF (or LF): "GET /path HTTP/1.x".
   Returns [None] until a full line is buffered. *)
let request_path buf =
  let s = Buffer.contents buf in
  match String.index_opt s '\n' with
  | None -> None
  | Some i ->
      let line = String.sub s 0 i in
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Some
        (match String.split_on_char ' ' line with
        | [ "GET"; path; _ ] | [ "GET"; path ] -> Ok path
        | verb :: _ -> Error (`Bad_method verb)
        | [] -> Error (`Bad_method ""))

let handle_pending t respond (p : pending) =
  let chunk = Bytes.create 1024 in
  match Unix.read p.p_fd chunk 0 (Bytes.length chunk) with
  | 0 -> drop t p
  | exception Unix.Unix_error _ -> drop t p
  | n -> (
      Buffer.add_subbytes p.p_buf chunk 0 n;
      (* respond as soon as the request line is in — we never read a
         body, and waiting for the full header block buys nothing *)
      match request_path p.p_buf with
      | None ->
          if Buffer.length p.p_buf > max_request_bytes then begin
            send_response p.p_fd
              {
                code = 400;
                content_type = "text/plain";
                body = "request too large\n";
              };
            drop t p
          end
      | Some (Ok path) ->
          send_response p.p_fd (respond path);
          drop t p
      | Some (Error (`Bad_method verb)) ->
          send_response p.p_fd
            {
              code = 405;
              content_type = "text/plain";
              body = Printf.sprintf "method %S not allowed (GET only)\n" verb;
            };
          drop t p)

let handle t ~readable ~respond =
  if not t.s_closed then
    List.iter
      (fun fd ->
        if fd = Transport.listener_fd t.listener then (
          match Unix.accept fd with
          | cfd, _ ->
              Hashtbl.replace t.pendings cfd { p_fd = cfd; p_buf = Buffer.create 128 }
          | exception Unix.Unix_error _ -> ())
        else
          match Hashtbl.find_opt t.pendings fd with
          | Some p -> handle_pending t respond p
          | None -> ())
      readable

let close t =
  if not t.s_closed then begin
    t.s_closed <- true;
    Hashtbl.iter (fun _ p -> try Unix.close p.p_fd with Unix.Unix_error _ -> ()) t.pendings;
    Hashtbl.reset t.pendings;
    Transport.close_listener t.listener
  end

(* ---- client ---- *)

let read_to_eof fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error _ -> Buffer.contents b
  in
  go ()

let split_once raw ~sep =
  let n = String.length raw and m = String.length sep in
  let rec find i =
    if i + m > n then None
    else if String.sub raw i m = sep then
      Some (String.sub raw 0 i, String.sub raw (i + m) (n - i - m))
    else find (i + 1)
  in
  find 0

let parse_response raw =
  match split_once raw ~sep:"\r\n\r\n" with
  | None -> Error "http: malformed response (no header terminator)"
  | Some (head, body) -> (
      let lines = String.split_on_char '\n' head in
      match lines with
      | status :: rest -> (
          match String.split_on_char ' ' status with
          | _ :: code :: _ -> (
              match int_of_string_opt code with
              | None -> Error (Printf.sprintf "http: bad status line %S" status)
              | Some code ->
                  let content_type =
                    List.fold_left
                      (fun acc line ->
                        let line = String.trim line in
                        match String.index_opt line ':' with
                        | Some i
                          when String.lowercase_ascii (String.sub line 0 i)
                               = "content-type" ->
                            String.trim
                              (String.sub line (i + 1) (String.length line - i - 1))
                        | _ -> acc)
                      "application/octet-stream" rest
                  in
                  Ok { code; content_type; body })
          | _ -> Error (Printf.sprintf "http: bad status line %S" status))
      | [] -> Error "http: empty response")

let get endpoint ~path =
  match Transport.sockaddr_of endpoint with
  | Error _ as e -> e
  | Ok addr -> (
      let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
      let finally () = try Unix.close fd with Unix.Unix_error _ -> () in
      Fun.protect ~finally (fun () ->
          match Unix.connect fd addr with
          | () ->
              write_all fd
                (Printf.sprintf "GET %s HTTP/1.0\r\nconnection: close\r\n\r\n" path);
              parse_response (read_to_eof fd)
          | exception Unix.Unix_error (e, _, _) ->
              Error
                (Printf.sprintf "http: connect %s: %s"
                   (Transport.endpoint_to_string endpoint)
                   (Unix.error_message e))))
