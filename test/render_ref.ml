(* Test-only reference renderers: [Value.pp], [Engine.pp_proc_outcome]
   and [Consensus_check.pp_violation] as they stood before each became a
   print of a string built without Format. The differential tests in
   test_printers.ml hold the library's renderers to
   [Fmt.str "%a"] of these. Never linked into lib/. *)

open Ffault_objects
module Engine = Ffault_sim.Engine
module Check = Ffault_verify.Consensus_check

let rec pp_value ppf = function
  | Value.Bottom -> Fmt.string ppf "\xe2\x8a\xa5" (* ⊥ *)
  | Value.Bool b -> Fmt.bool ppf b
  | Value.Int i -> Fmt.int ppf i
  | Value.Str s -> Fmt.pf ppf "%S" s
  | Value.Pair (a, b) -> Fmt.pf ppf "(%a, %a)" pp_value a pp_value b
  | Value.Staged { value; stage } ->
      Fmt.pf ppf "\xe2\x9f\xa8%a,%d\xe2\x9f\xa9" pp_value value stage

let pp_proc_outcome ppf = function
  | Engine.Decided v -> Fmt.pf ppf "decided %a" pp_value v
  | Engine.Hung -> Fmt.string ppf "hung"
  | Engine.Exhausted { steps; budget } ->
      Fmt.pf ppf "exhausted (%d steps, budget %d)" steps budget
  | Engine.Step_limited -> Fmt.string ppf "step-limited"
  | Engine.Cancelled -> Fmt.string ppf "cancelled"
  | Engine.Crashed msg -> Fmt.pf ppf "crashed: %s" msg

let pp_violation ppf = function
  | Check.Validity { proc; decided } ->
      Fmt.pf ppf "validity: p%d decided %a, which is no process's input" proc pp_value decided
  | Check.Consistency { proc_a; val_a; proc_b; val_b } ->
      Fmt.pf ppf "consistency: p%d decided %a but p%d decided %a" proc_a pp_value val_a proc_b
        pp_value val_b
  | Check.Wait_freedom { proc; outcome } ->
      Fmt.pf ppf "wait-freedom: p%d did not decide (%a)" proc pp_proc_outcome outcome
