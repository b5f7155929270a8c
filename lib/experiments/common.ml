module Fault = Ffault_fault
module Consensus = Ffault_consensus
module Check = Ffault_verify.Consensus_check
module Mass = Ffault_verify.Mass
module Dfs = Ffault_verify.Dfs
module Rng = Ffault_prng.Rng
module Engine = Ffault_sim.Engine
module Trace = Ffault_sim.Trace

let always_overriding _rng = Fault.Injector.always Fault.Fault_kind.Overriding

let probabilistic_overriding ~p rng =
  Fault.Injector.probabilistic ~seed:(Rng.next_seed rng) ~p Fault.Fault_kind.Overriding

let mass ?(injector = always_overriding) ?on_report ~runs ~seed setup =
  Mass.run ~injector ?on_report ~n_runs:runs ~base_seed:seed setup

let violation_cell (s : Mass.summary) =
  if s.Mass.failure_count = 0 then "0" else Fmt.str "%d (!!)" s.Mass.failure_count

let render_trace setup (report : Check.report) =
  let world = Check.world setup in
  Fmt.str "%a" (Trace.pp ~world) report.Check.result.Engine.trace

let trace_note setup report =
  let violations =
    String.concat "; " (List.map Check.violation_to_string report.Check.violations)
  in
  Fmt.str "%s — witness trace:@.%s" violations (render_trace setup report)

let first_witness_trace (stats : Dfs.stats) setup =
  match stats.Dfs.witnesses with
  | [] -> None
  | w :: _ -> Some (trace_note setup w.Dfs.report)
