let version = 1
let max_frame_bytes = 16 * 1024 * 1024

type frame = { tag : char; payload : string }

let encode { tag; payload } =
  let body_len = 1 + String.length payload in
  if body_len > max_frame_bytes then
    invalid_arg "Wire.encode: payload exceeds max_frame_bytes";
  let b = Bytes.create (4 + body_len) in
  Bytes.set_int32_be b 0 (Int32.of_int body_len);
  Bytes.set b 4 tag;
  Bytes.blit_string payload 0 b 5 (String.length payload);
  Bytes.unsafe_to_string b

module Decoder = struct
  type t = {
    buf : Buffer.t;
    mutable pos : int;  (* consumed prefix of [buf] *)
    mutable poisoned : string option;
  }

  let create () = { buf = Buffer.create 4096; pos = 0; poisoned = None }

  let feed t s = if t.poisoned = None then Buffer.add_string t.buf s

  let available t = Buffer.length t.buf - t.pos

  (* Shift out the consumed prefix once it dominates the buffer, so a
     long-lived connection doesn't grow its buffer without bound. *)
  let compact t =
    if t.pos > 65_536 && t.pos * 2 > Buffer.length t.buf then begin
      let rest = Buffer.sub t.buf t.pos (available t) in
      Buffer.clear t.buf;
      Buffer.add_string t.buf rest;
      t.pos <- 0
    end

  let poison t msg =
    t.poisoned <- Some msg;
    Buffer.clear t.buf;
    t.pos <- 0;
    Error msg

  let next t =
    match t.poisoned with
    | Some m -> Error m
    | None ->
        if available t < 4 then Ok None
        else
          let byte i = Char.code (Buffer.nth t.buf (t.pos + i)) in
          (* big-endian, reconstructed by hand so a length with the top
             bit set reads as negative (and is rejected) rather than
             wrapping into a plausible size on 64-bit ints *)
          let len =
            Int32.to_int
              (Int32.logor
                 (Int32.shift_left (Int32.of_int (byte 0)) 24)
                 (Int32.of_int ((byte 1 lsl 16) lor (byte 2 lsl 8) lor byte 3)))
          in
          if len < 1 then poison t "wire: zero-length frame"
          else if len > max_frame_bytes then
            poison t (Printf.sprintf "wire: oversized frame (%d bytes)" len)
          else if available t < 4 + len then Ok None
          else begin
            let tag = Buffer.nth t.buf (t.pos + 4) in
            let payload = Buffer.sub t.buf (t.pos + 5) (len - 1) in
            t.pos <- t.pos + 4 + len;
            compact t;
            Ok (Some { tag; payload })
          end
end
