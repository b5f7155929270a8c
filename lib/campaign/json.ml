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

(* Decimal digits straight into the buffer: one writer serves JSON and
   the rendering of values. *)
let add_int = Ffault_objects.Value.add_int

(* Copies each run of bytes that need no escape in one blit. *)
let add_string b s =
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

let add_float b f =
  let fmt = if Float.is_integer f && Float.abs f < 1e15 then "%.1f" else "%.17g" in
  Buffer.add_string b (format_float fmt f)

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int i -> add_int b i
  | Float f -> add_float b f
  | Str s -> add_string b s
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
          add_string b k;
          Buffer.add_char b ':';
          write b v)
        fields;
      Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* ---- parsing: recursive descent on a cursor ---- *)

type cursor = { s : string; n : int; mutable pos : int }

exception Parse_error of string

let max_depth = 64

let fail c msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg c.pos))
let[@inline] next_is c ch = c.pos < c.n && Char.equal (String.unsafe_get c.s c.pos) ch

let[@inline] skip_ws c =
  while
    c.pos < c.n
    && match String.unsafe_get c.s c.pos with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expected c ch = fail c (Printf.sprintf "expected %C" ch)
let[@inline] expect c ch = if next_is c ch then c.pos <- c.pos + 1 else expected c ch

(* [key] from its byte [i] on is at [s]'s byte [start + i]; the caller
   checked that it fits *)
let rec equal_from s start key i =
  i = String.length key
  || Char.equal (String.unsafe_get s (start + i)) (String.unsafe_get key i)
     && equal_from s start key (i + 1)

(* [text] is the [len] bytes of [s] at [start] *)
let[@inline] is_text s start len text = String.length text = len && equal_from s start text 0

let literal c word v =
  let l = String.length word in
  if c.pos + l <= c.n && equal_from c.s c.pos word 0 then begin
    c.pos <- c.pos + l;
    v
  end
  else fail c (Printf.sprintf "expected %s" word)

(* the offset of the first closing quote or backslash at or after [i],
   or the end of the text *)
let[@inline] string_stop c i =
  let i = ref i in
  while !i < c.n && match String.unsafe_get c.s !i with '"' | '\\' -> false | _ -> true do
    incr i
  done;
  !i

(* The string whose first byte after the opening quote is at [start],
   holding an escape or missing its closing quote (the first backslash
   or the end is at [stop]): decoded into a buffer, copying the runs
   between escapes whole. *)
let decode_string c start stop =
  let s = c.s and n = c.n in
  let b = Buffer.create (stop - start + 16) in
  let rec go stop =
    Buffer.add_substring b s c.pos (stop - c.pos);
    c.pos <- stop;
    if c.pos >= n then fail c "unterminated string";
    let ch = String.unsafe_get s c.pos in
    c.pos <- c.pos + 1;
    if Char.equal ch '"' then Buffer.contents b
    else begin
      if c.pos >= n then fail c "unterminated escape";
      let e = s.[c.pos] in
      c.pos <- c.pos + 1;
      (match e with
      | '"' | '\\' | '/' -> Buffer.add_char b e
      | 'n' -> Buffer.add_char b '\n'
      | 't' -> Buffer.add_char b '\t'
      | 'r' -> Buffer.add_char b '\r'
      | 'b' -> Buffer.add_char b '\b'
      | 'f' -> Buffer.add_char b '\012'
      | 'u' ->
          if c.pos + 4 > n then fail c "truncated \\u escape";
          let code =
            try int_of_string ("0x" ^ String.sub s c.pos 4)
            with Failure _ -> fail c "bad \\u escape"
          in
          c.pos <- c.pos + 4;
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
      | _ -> fail c "bad escape");
      go (string_stop c c.pos)
    end
  in
  c.pos <- start;
  go stop

let[@inline] read_string c =
  expect c '"';
  let start = c.pos in
  let stop = string_stop c start in
  if stop < c.n && Char.equal (String.unsafe_get c.s stop) '"' then begin
    c.pos <- stop + 1;
    String.sub c.s start (stop - start)
  end
  else decode_string c start stop

(* the index of the first entry of [keys] from [i] on that is the [len]
   bytes of [s] at [start], or -1 *)
let rec index_at s start len keys i =
  if i >= Array.length keys then -1
  else if is_text s start len (Array.unsafe_get keys i) then i
  else index_at s start len keys (i + 1)

(* The key at [start], just after its opening quote, is [keys.(i)]
   followed by the closing quote. *)
let[@inline] is_key c start keys i =
  i < Array.length keys
  &&
  let key = Array.unsafe_get keys i in
  let stop = start + String.length key in
  stop < c.n && Char.equal (String.unsafe_get c.s stop) '"' && equal_from c.s start key 0

(* Reads a field's key and its colon, and answers the index of the
   entry of [keys] equal to the key, or -1, trying [next] first (the
   entries are distinct). *)
let key c keys next =
  skip_ws c;
  expect c '"';
  let start = c.pos in
  let i =
    if is_key c start keys next then begin
      c.pos <- start + String.length (Array.unsafe_get keys next) + 1;
      next
    end
    else
      let stop = string_stop c start in
      if stop < c.n && Char.equal (String.unsafe_get c.s stop) '"' then begin
        c.pos <- stop + 1;
        index_at c.s start (stop - start) keys 0
      end
      else
        let k = decode_string c start stop in
        index_at k 0 (String.length k) keys 0
  in
  skip_ws c;
  expect c ':';
  i

(* The last two float lexemes this domain read, with their values: the
   records of a journal repeat their cell's rate and crash rate, and
   converting a float's text is most of what reading a number costs. *)
let recent_floats = Domain.DLS.new_key (fun () -> [| ("", Null); ("", Null) |])

let float_lexeme c start len =
  let recent = Domain.DLS.get recent_floats in
  let text0, v0 = recent.(0) and text1, v1 = recent.(1) in
  if is_text c.s start len text0 then v0
  else if is_text c.s start len text1 then v1
  else
    let text = String.sub c.s start len in
    match float_of_string_opt text with
    | None -> fail c "bad number"
    | Some f ->
        let v = Float f in
        recent.(1) <- recent.(0);
        recent.(0) <- (text, v);
        v

let[@inline] read_number c =
  let s = c.s and n = c.n in
  let start = c.pos in
  let first = if Char.equal (String.unsafe_get s start) '-' then start + 1 else start in
  (* the leading digits, converted as they are read *)
  let v = ref 0 and i = ref first in
  while !i < n && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false do
    v := (!v * 10) + (Char.code (String.unsafe_get s !i) - 48);
    incr i
  done;
  let digits_end = !i in
  (* the rest of the lexeme *)
  let is_float = ref false in
  while
    !i < n
    &&
    match String.unsafe_get s !i with
    | '0' .. '9' | '-' | '+' -> true
    | '.' | 'e' | 'E' ->
        is_float := true;
        true
    | _ -> false
  do
    incr i
  done;
  c.pos <- !i;
  (* A plain integer, -?[0-9]{1,18}, cannot overflow: it is converted
     already. Any other lexeme goes through the string conversions. *)
  let digits = digits_end - first in
  if digits_end = !i && digits >= 1 && digits <= 18 then Int (if first > start then - !v else !v)
  else if !is_float then float_lexeme c start (!i - start)
  else
    let text = String.sub s start (!i - start) in
    match int_of_string_opt text with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt text with Some f -> Float f | None -> fail c "bad number")

let open_container c depth =
  if depth >= max_depth then fail c (Printf.sprintf "nesting deeper than %d levels" max_depth);
  c.pos <- c.pos + 1;
  skip_ws c

(* The elements (or fields) of the container just opened, up to and
   including its [close]: [item ()] reads each one. *)
let items c close item =
  if next_is c close then c.pos <- c.pos + 1
  else begin
    item ();
    skip_ws c;
    while next_is c ',' do
      c.pos <- c.pos + 1;
      item ();
      skip_ws c
    done;
    expect c close
  end

let rec value ~depth c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '"' -> Str (read_string c)
  | 'n' -> literal c "null" Null
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | '-' | '0' .. '9' -> read_number c
  | '[' ->
      open_container c depth;
      let rev = ref [] in
      items c ']' (fun () -> rev := value ~depth:(depth + 1) c :: !rev);
      List (List.rev !rev)
  | '{' ->
      open_container c depth;
      let rev = ref [] in
      items c '}' (fun () ->
          skip_ws c;
          let k = read_string c in
          skip_ws c;
          expect c ':';
          rev := (k, value ~depth:(depth + 1) c) :: !rev);
      Obj (List.rev !rev)
  | ch -> fail c (Printf.sprintf "unexpected character %C" ch)

let members ~depth c keys =
  skip_ws c;
  if not (next_is c '{') then None
  else begin
    open_container c depth;
    let values = Array.make (Array.length keys) None in
    (* keys met in the table's order match at the first try *)
    let last = ref (-1) in
    items c '}' (fun () ->
        let i = key c keys (!last + 1) in
        let v = value ~depth:(depth + 1) c in
        if i >= 0 then begin
          last := i;
          if Option.is_none values.(i) then values.(i) <- Some v
        end);
    Some values
  end

let parse s read =
  let c = { s; n = String.length s; pos = 0 } in
  match read c with
  | v ->
      skip_ws c;
      if c.pos <> c.n then Error (Printf.sprintf "trailing garbage at offset %d" c.pos) else Ok v
  | exception Parse_error msg -> Error msg

let of_string s = parse s (value ~depth:0)

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
