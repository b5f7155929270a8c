type t = { columns : string list; mutable rows : string list list (* reversed *) }

let create ~columns =
  if columns = [] then invalid_arg "Table.create: empty column list";
  { columns; rows = [] }

let add_row t row =
  if List.length row <> List.length t.columns then
    invalid_arg "Table.add_row: row width differs from header";
  t.rows <- row :: t.rows

(* Display width in characters, counting UTF-8 multibyte sequences as one
   column (good enough for the symbols we use: ⊥, ⟨⟩, ∞). *)
let display_width s =
  let n = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
  !n

let pp ppf t =
  let rows = List.rev t.rows in
  let widths =
    List.fold_left
      (fun acc row -> List.map2 (fun w cell -> max w (display_width cell)) acc row)
      (List.map display_width t.columns)
      rows
  in
  let pad s w =
    let d = w - display_width s in
    if d <= 0 then s else s ^ String.make d ' '
  in
  let render_row row =
    "| " ^ String.concat " | " (List.map2 pad row widths) ^ " |"
  in
  let sep = "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths) ^ "|" in
  Fmt.pf ppf "%s@.%s@." (render_row t.columns) sep;
  List.iter (fun row -> Fmt.pf ppf "%s@." (render_row row)) rows

let to_string t = Fmt.str "%a" pp t

let cell_int = string_of_int
let cell_bool b = if b then "yes" else "no"
let cell_float ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x
let cell_opt f = function None -> "-" | Some x -> f x
