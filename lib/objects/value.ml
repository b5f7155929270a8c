type t =
  | Bottom
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | Staged of { value : t; stage : int }

let rec equal a b =
  match a, b with
  | Bottom, Bottom -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Str x, Str y -> String.equal x y
  | Pair (x1, y1), Pair (x2, y2) -> equal x1 x2 && equal y1 y2
  | Staged a, Staged b -> a.stage = b.stage && equal a.value b.value
  | (Bottom | Bool _ | Int _ | Str _ | Pair _ | Staged _), _ -> false

let tag = function
  | Bottom -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Str _ -> 3
  | Pair _ -> 4
  | Staged _ -> 5

let rec compare a b =
  match a, b with
  | Bottom, Bottom -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | Pair (x1, y1), Pair (x2, y2) ->
      let c = compare x1 x2 in
      if c <> 0 then c else compare y1 y2
  | Staged a, Staged b ->
      let c = Int.compare a.stage b.stage in
      if c <> 0 then c else compare a.value b.value
  | _, _ -> Int.compare (tag a) (tag b)

let rec hash v =
  match v with
  | Bottom -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> (i * 0x9E3779B1) lxor 41
  | Str s -> Hashtbl.hash s lxor 43
  | Pair (a, b) -> (hash a * 31) + hash b + 47
  | Staged { value; stage } -> (hash value * 31) + (stage * 131) + 53

(* Built without Format or Printf: violations are rendered on the trial
   path. *)

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

let rec add b = function
  | Bottom -> Buffer.add_string b "\xe2\x8a\xa5" (* ⊥ *)
  | Bool v -> Buffer.add_string b (Bool.to_string v)
  | Int i -> add_int b i
  | Str s ->
      (* OCaml's own quoting, as Printf's %S *)
      Buffer.add_char b '"';
      Buffer.add_string b (String.escaped s);
      Buffer.add_char b '"'
  | Pair (x, y) ->
      Buffer.add_char b '(';
      add b x;
      Buffer.add_string b ", ";
      add b y;
      Buffer.add_char b ')'
  | Staged { value; stage } ->
      Buffer.add_string b "\xe2\x9f\xa8" (* ⟨ *);
      add b value;
      Buffer.add_char b ',';
      add_int b stage;
      Buffer.add_string b "\xe2\x9f\xa9" (* ⟩ *)

let to_string v =
  let b = Buffer.create 16 in
  add b v;
  Buffer.contents b

let pp ppf v = Fmt.string ppf (to_string v)

let is_bottom = function Bottom -> true | _ -> false

let stage = function Staged { stage; _ } -> Some stage | _ -> None

let staged_value = function Staged { value; _ } -> Some value | _ -> None

let int_exn = function
  | Int i -> i
  | v -> invalid_arg (Fmt.str "Value.int_exn: %a is not an Int" pp v)
