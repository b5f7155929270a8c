type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ---- printing ---- *)

(* The runtime primitive behind Printf's %f and %g: calling it directly
   skips the run-time interpretation of the format, same bytes. *)
external format_float : string -> float -> string = "caml_format_float"

(* The decimal digits of [-n], for [n <= 0]: the non-positive side holds
   [min_int] without overflow. *)
let rec add_neg_digits b n =
  if n <= -10 then add_neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 - (n mod 10)))

let add_int b i =
  if i < 0 then begin
    Buffer.add_char b '-';
    add_neg_digits b i
  end
  else add_neg_digits b (-i)

(* Copies each run of bytes that need no escape in one blit. *)
let escape_string b s =
  Buffer.add_char b '"';
  let n = String.length s in
  let clean = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      if i > !clean then Buffer.add_substring b s !clean (i - !clean);
      (match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c)));
      clean := i + 1
    end
  done;
  if n > !clean then Buffer.add_substring b s !clean (n - !clean);
  Buffer.add_char b '"'

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f ->
      let fmt = if Float.is_integer f && Float.abs f < 1e15 then "%.1f" else "%.17g" in
      Buffer.add_string b (format_float fmt f)
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

let max_depth = 64

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let next_is c = !pos < n && Char.equal (String.unsafe_get s !pos) c in
  let rec skip_ws () =
    if !pos < n then
      match String.unsafe_get s !pos with
      | ' ' | '\t' | '\n' | '\r' ->
          incr pos;
          skip_ws ()
      | _ -> ()
  in
  let expect c = if next_is c then incr pos else fail (Printf.sprintf "expected %C" c) in
  let literal word v =
    let l = String.length word in
    let rec matches i =
      i = l || (Char.equal (String.unsafe_get s (!pos + i)) word.[i] && matches (i + 1))
    in
    if !pos + l <= n && matches 0 then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* the offset of the first closing quote or backslash at or after [i],
     or [n] *)
  let rec string_stop i =
    if i < n then match String.unsafe_get s i with '"' | '\\' -> i | _ -> string_stop (i + 1)
    else n
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = string_stop start in
    if stop < n && Char.equal (String.unsafe_get s stop) '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else begin
      (* escapes (or no closing quote): decode into a buffer, copying
         the runs between escapes whole *)
      let b = Buffer.create (stop - start + 16) in
      let rec go stop =
        Buffer.add_substring b s !pos (stop - !pos);
        pos := stop;
        if !pos >= n then fail "unterminated string";
        let c = String.unsafe_get s !pos in
        incr pos;
        if Char.equal c '"' then Buffer.contents b
        else begin
          if !pos >= n then fail "unterminated escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char b e
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
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
              end
          | _ -> fail "bad escape");
          go (string_stop !pos)
        end
      in
      pos := start;
      go stop
    end
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    let continue = ref true in
    while !continue && !pos < n do
      match String.unsafe_get s !pos with
      | '0' .. '9' | '-' | '+' -> incr pos
      | '.' | 'e' | 'E' ->
          is_float := true;
          incr pos
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
  let open_container depth =
    if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
    incr pos;
    skip_ws ()
  in
  let rec parse_value depth =
    skip_ws ();
    if !pos >= n then fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '"' -> Str (parse_string ())
    | 'n' -> literal "null" Null
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | '-' | '0' .. '9' -> parse_number ()
    | '[' ->
        open_container depth;
        if next_is ']' then begin
          incr pos;
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while next_is ',' do
            incr pos;
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | '{' ->
        open_container depth;
        if next_is '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while next_is ',' do
            incr pos;
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match parse_value 0 with
  | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
  | exception Parse_error msg -> Error msg

(* ---- accessors ---- *)

let member key = function
  | Obj fields ->
      let rec find = function
        | [] -> None
        | (k, v) :: rest -> if String.equal k key then Some v else find rest
      in
      find fields
  | _ -> None

(* [int_of_float] is undefined outside the int range [\[min_int, -min_int)]
   (both bounds are powers of two, so exact as floats). *)
let min_int_float = Float.of_int min_int

let get_int = function
  | Int i -> Some i
  | Float f when Float.is_integer f && f >= min_int_float && f < -.min_int_float ->
      Some (int_of_float f)
  | _ -> None

let get_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
let get_str = function Str s -> Some s | _ -> None
let get_bool = function Bool b -> Some b | _ -> None
let get_list = function List l -> Some l | _ -> None
