(* Test-only reference codec: a verbatim copy of lib/campaign/json.ml as it
   stood before its printer and parser were rewritten for speed. The
   differential tests in test_json.ml hold the library's codec to these
   exact bytes and trees. Never linked into lib/. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

let escape_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> Buffer.add_string b (string_of_int i)
  | Float f ->
      if Float.is_integer f && Float.abs f < 1e15 then
        Buffer.add_string b (Printf.sprintf "%.1f" f)
      else Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Str s -> escape_string b s
  | List items ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          write b v)
        items;
      Buffer.add_char b ']'
  | Obj fields ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          escape_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- parsing: plain recursive descent ---- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          advance ();
          match e with
          | '"' | '\\' | '/' ->
              Buffer.add_char b e;
              go ()
          | 'n' ->
              Buffer.add_char b '\n';
              go ()
          | 't' ->
              Buffer.add_char b '\t';
              go ()
          | 'r' ->
              Buffer.add_char b '\r';
              go ()
          | 'b' ->
              Buffer.add_char b '\b';
              go ()
          | 'f' ->
              Buffer.add_char b '\012';
              go ()
          | 'u' ->
              if !pos + 4 > n then fail "truncated \\u escape";
              let code =
                try int_of_string ("0x" ^ String.sub s !pos 4)
                with Failure _ -> fail "bad \\u escape"
              in
              pos := !pos + 4;
              (* encode the code point as UTF-8 (BMP only; our own
                 encoder never emits \u for non-control characters) *)
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else if code < 0x800 then begin
                Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end
              else begin
                Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
              end;
              go ()
          | _ -> fail "bad escape")
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let continue = ref true in
    while !continue do
      match peek () with
      | Some ('0' .. '9' | '-' | '+') -> advance ()
      | Some ('.' | 'e' | 'E') ->
          is_float := true;
          advance ()
      | _ -> continue := false
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with Some f -> Float f | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with Some f -> Float f | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match parse_value () with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let get_int = function Int i -> Some i | Float f when Float.is_integer f -> Some (int_of_float f) | _ -> None
let get_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let get_str = function Str s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List l -> Some l | _ -> None
