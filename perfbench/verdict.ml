(* The compare gate's decision rule for one workload x metric, kept pure
   so it can be tested on synthetic inputs.

   [parent] and [change] are per-run values in run order; run i of one
   side is paired with run i of the other. The rule:

   - regressed: the change's median is worse than the parent's by more
     than [bound] (a share of the parent's median);
   - improved: the runs alternated between the sides, there are at
     least 10 pairs, the change wins at least 9 in every 10 of them
     (ties count for neither side), and the medians differ by more than
     the parent's interquartile spread;
   - unresolved: neither of the above, and the parent's own spread is
     wider than [bound] — unless every change run beats every parent
     run;
   - unchanged: otherwise. *)

type t = Improved | Unchanged | Regressed | Unresolved

let to_string = function
  | Improved -> "improved"
  | Unchanged -> "unchanged"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

let min_pairs = 10

(* [a] reads better than [b] *)
let beats better a b = match better with Catalog.Higher -> a > b | Catalog.Lower -> a < b

let rec take n = function x :: rest when n > 0 -> x :: take (n - 1) rest | _ -> []

type detail = { pairs : int; wins : int; worse_by : float; spread : float }

let detail ~better ~parent ~change =
  let n = min (List.length parent) (List.length change) in
  let pairs = List.combine (take n parent) (take n change) in
  let mp = Stats.median parent and mc = Stats.median change in
  let q1, q3 = Stats.quartiles parent in
  let worse = match better with Catalog.Higher -> mp -. mc | Catalog.Lower -> mc -. mp in
  let rel x = if mp = 0.0 then if x > 0.0 then infinity else 0.0 else x /. Float.abs mp in
  {
    pairs = n;
    wins = List.length (List.filter (fun (p, c) -> beats better c p) pairs);
    worse_by = rel worse;
    spread = rel (q3 -. q1);
  }

let decide ~better ~bound ~alternating ~parent ~change =
  if parent = [] || change = [] then Unresolved
  else
    let d = detail ~better ~parent ~change in
    let all_better =
      List.for_all (fun c -> List.for_all (fun p -> beats better c p) parent) change
    in
    if d.worse_by > bound then Regressed
    else if
      alternating && d.pairs >= min_pairs
      && d.wins * 10 >= 9 * d.pairs
      && -.d.worse_by > d.spread
    then Improved
    else if d.spread > bound && not all_better then Unresolved
    else Unchanged

(* Whether the two sides' runs strictly alternate in time. *)
let alternating ~parent_starts ~change_starts =
  let tagged =
    List.map (fun t -> (t, 0)) parent_starts @ List.map (fun t -> (t, 1)) change_starts
  in
  let sides = List.map snd (List.sort (fun (a, _) (b, _) -> compare a b) tagged) in
  let rec alt = function a :: (b :: _ as rest) -> a <> b && alt rest | _ -> true in
  alt sides
