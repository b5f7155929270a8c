type t = Splitmix.t

let make ~seed = Splitmix.create seed

let split = Splitmix.split

let copy = Splitmix.copy

let next_seed = Splitmix.next

let int g bound = Splitmix.next_int g ~bound

let int_in g ~lo ~hi =
  if hi < lo then invalid_arg "Rng.int_in: hi < lo";
  lo + int g (hi - lo + 1)

let float = Splitmix.next_float

let bool = Splitmix.next_bool

let bernoulli g ~p =
  if p <= 0.0 then false else if p >= 1.0 then true else float g < p

let pick g a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int g (Array.length a))

let pick_list g l =
  match l with
  | [] -> invalid_arg "Rng.pick_list: empty list"
  | _ -> List.nth l (int g (List.length l))

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let shuffled_list g l =
  let a = Array.of_list l in
  shuffle g a;
  Array.to_list a

let sample_without_replacement g ~k ~n =
  if k < 0 || k > n then invalid_arg "Rng.sample_without_replacement";
  (* Reservoir-free selection sampling (Knuth algorithm S). *)
  let rec go i remaining acc =
    if remaining = 0 then List.rev acc
    else if int g (n - i) < remaining then go (i + 1) (remaining - 1) (i :: acc)
    else go (i + 1) remaining acc
  in
  go 0 k []

let weighted_index g w =
  let n = Array.length w in
  if n = 0 then invalid_arg "Rng.weighted_index: empty weights";
  let total = Array.fold_left (fun acc x ->
      if x < 0.0 then invalid_arg "Rng.weighted_index: negative weight";
      acc +. x) 0.0 w
  in
  if total <= 0.0 then invalid_arg "Rng.weighted_index: zero total weight";
  let target = float g *. total in
  let rec scan i acc =
    if i = n - 1 then i
    else
      let acc = acc +. w.(i) in
      if target < acc then i else scan (i + 1) acc
  in
  scan 0 0.0

(* ---- keyed streams: FNV-1a over a label ---- *)

let fnv_basis = 0xCBF29CE484222325L

let[@inline] fnv h c = Int64.mul (Int64.logxor h (Int64.of_int (Char.code c))) 0x100000001B3L

let[@inline] fnv_string h s =
  let h = ref h in
  for i = 0 to String.length s - 1 do
    h := fnv !h (String.unsafe_get s i)
  done;
  !h

(* The hash continued over the decimal digits of [n] as [%d] prints
   them. The digits are taken from the non-positive value, so [min_int]
   needs no negation. Inlined: a hash returned from a call is boxed. *)
let[@inline] fnv_int h n =
  let h = ref (if n < 0 then fnv h '-' else h) in
  let m = if n < 0 then n else -n in
  let p = ref 1 in
  while m / !p <= -10 do
    p := !p * 10
  done;
  while !p > 0 do
    h := fnv !h (Char.unsafe_chr (48 - (m / !p mod 10)));
    p := !p / 10
  done;
  !h

let seed_of_string s = fnv_string fnv_basis s

type label = int64

let label seed s = fnv_string (fnv_string fnv_basis (Int64.to_string seed)) s
let label_seed l = l
let label_seed_int l n = fnv_int l n
let label_seed_ints l a b = fnv_int (fnv (fnv_int l a) '/') b
