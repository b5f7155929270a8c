(* Order statistics shared by the harness and the compare gate. The
   quartiles follow Python's [statistics.quantiles(values, n=4)] with its
   default "exclusive" method, so a spread computed here equals one
   computed by a script from the emitted JSON. *)

let sorted values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  a

let nonempty what a = if Array.length a = 0 then invalid_arg ("Stats." ^ what ^ ": no values")

let median values =
  let a = sorted values in
  nonempty "median" a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles values =
  let a = sorted values in
  nonempty "quartiles" a;
  let n = Array.length a in
  if n = 1 then (a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile, [p] in (0, 100]. *)
let percentile values p =
  let a = sorted values in
  nonempty "percentile" a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

type summary = { median : float; q1 : float; q3 : float; n : int }

let summarize values =
  let q1, q3 = quartiles values in
  { median = median values; q1; q3; n = List.length values }
