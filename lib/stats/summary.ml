module Counts = Map.Make (Int)

type t = {
  mutable counts : int Counts.t;  (* each distinct sample's occurrences *)
  mutable n : int;
  mutable sum : int;
}

let create () = { counts = Counts.empty; n = 0; sum = 0 }

let add s x =
  s.counts <- Counts.update x (fun c -> Some (1 + Option.value c ~default:0)) s.counts;
  s.n <- s.n + 1;
  s.sum <- s.sum + x

let count s = s.n
let mean s = if s.n = 0 then 0.0 else float_of_int s.sum /. float_of_int s.n

let nonempty fn s = if s.n = 0 then invalid_arg ("Summary." ^ fn ^ ": empty accumulator")

let max_value s =
  nonempty "max_value" s;
  float_of_int (fst (Counts.max_binding s.counts))

(* The [i]-th smallest sample, counting from 0; [i < count s]. *)
let nth s i =
  let rec walk i seq =
    match seq () with
    | Seq.Cons ((v, c), rest) -> if i < c then v else walk (i - c) rest
    | Seq.Nil -> assert false
  in
  float_of_int (walk i (Counts.to_seq s.counts))

let percentile s p =
  nonempty "percentile" s;
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p out of [0, 100]";
  let rank = p /. 100.0 *. float_of_int (s.n - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  if lo = hi then nth s lo
  else
    let w = rank -. float_of_int lo in
    (nth s lo *. (1.0 -. w)) +. (nth s hi *. w)
