open Ffault_prng

type crash_effect = Vanish | Linearize

let equal_crash_effect (a : crash_effect) b = a = b

let crash_effect_to_string = function Vanish -> "vanish" | Linearize -> "linearize"
let pp_crash_effect ppf e = Fmt.string ppf (crash_effect_to_string e)

type t = { seed : int64; rate : float; label : Rng.label }

(* One stateless stream per (proc, op-index) atom, keyed like netsim's
   Fault_plan: the stream of operation [k] of [proc] is seeded by the
   FNV hash of the label "<seed>/crash/<proc>/<k>", so neighbouring
   atoms are decorrelated and adding new labels later leaves every
   existing schedule untouched. The plan hashes "<seed>/crash/" once. *)
let make ~seed ~rate =
  if not (Float.is_finite rate) || rate < 0.0 || rate > 1.0 then
    invalid_arg "Crash_plan.make: rate must be in [0, 1]";
  { seed; rate; label = Rng.label seed "/crash/" }

let seed t = t.seed
let rate t = t.rate

let decide t ~proc ~k =
  if t.rate <= 0.0 then None
  else
    let g = Rng.make ~seed:(Rng.label_seed_ints t.label proc k) in
    if not (Rng.bernoulli g ~p:t.rate) then None
    else Some (if Rng.bernoulli g ~p:0.5 then Vanish else Linearize)

let pp ppf t = Fmt.pf ppf "crash-plan(seed=%Ld, rate=%.3f)" t.seed t.rate
