(** Recorded trials and witness minimization.

    A campaign trial runs the cell's setup once under a seeded random
    driver that {e records} every branchable choice (scheduler pick,
    fault-menu pick) as a decision vector in the {!Ffault_verify.Dfs}
    convention. The trial is therefore exactly reproducible two ways:
    from its seed (re-record) and from its decision vector
    ([Dfs.replay]). A violating trial journals that vector as its
    witness; {!minimize} feeds it to {!Ffault_verify.Shrink}, which
    greedily minimizes it while re-replaying — what [campaign report]
    does for each cell's first failures ({!Report}). *)

val run_recorded :
  ?interrupt:(unit -> bool) ->
  ?crash_plan:Ffault_recover.Crash_plan.t ->
  Ffault_verify.Consensus_check.setup ->
  rate:float ->
  seed:int64 ->
  Ffault_verify.Consensus_check.report * int array
(** One seeded run. [rate] is the probability that a step with at least
    one budget-permitted {e primitive}-fault option takes one (uniform
    over those options); the schedule choice is uniform over enabled
    processes. [crash_plan] proposes crash-restart points per (process,
    op-index) atom — a proposed crash is taken whenever the setup's crash
    budget still offers one at that step, and crashes are {e only} taken
    by plan, never by [rate]. Equal (setup, rate, crash_plan, seed) give
    equal reports — unless [interrupt] (the engine's cancellation hook,
    see {!Ffault_sim.Engine}) fires, which truncates the run at a
    wall-clock-dependent point.

    The run is untraced: the report's [result.trace] is [[]], since a
    campaign reads only its outcomes. {!replay} of the decision vector
    gives the same run with its trace. *)

val minimize :
  Ffault_verify.Consensus_check.setup -> int array -> (int array * Ffault_verify.Consensus_check.report) option
(** Shrink a violating decision vector; [None] if the vector does not
    replay to a violation (which recording rules out — defensive). *)

type result = {
  report : Ffault_verify.Consensus_check.report;
  decisions : int array;  (** the recorded vector *)
  witness : int array option;  (** shrunk vector when the trial failed *)
  wall_ns : int;  (** the trial's duration, on the monotonic clock *)
}

val run_trial :
  ?shrink:bool ->
  ?interrupt:(unit -> bool) ->
  ?crash_plan:Ffault_recover.Crash_plan.t ->
  Ffault_verify.Consensus_check.setup ->
  rate:float ->
  seed:int64 ->
  result
(** Run one trial; on violation (and [shrink], default true) minimize
    the witness. The campaign pool passes [~shrink:false] and journals
    [decisions]. An interrupted (cancelled) trial never shrinks and
    never carries a witness — its truncated decision vector is not
    deterministically replayable; check [report.result.interrupted]. *)

val replay :
  Ffault_verify.Consensus_check.setup -> int array -> Ffault_verify.Consensus_check.report
(** Re-execute a journaled witness. *)
