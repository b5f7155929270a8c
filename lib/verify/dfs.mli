(** Bounded-exhaustive exploration of schedule × fault nondeterminism
    (stateless model checking by re-execution).

    Every scheduler decision and every fault decision is a branch point.
    A run is replayed from a decision prefix; choices beyond the prefix
    take the default (first) option — the lowest-numbered enabled process,
    the correct outcome — and each such point spawns sibling prefixes for
    its alternatives. Exploration is depth-first in prefix order, so the
    search is exhaustive up to [max_branch_depth] branch points (schedule
    and fault choices combined) and [max_executions] total runs.

    Used by the impossibility experiments: a violation witness is a
    decision vector whose replay produces a trace breaking a consensus
    property; exhaustive exhaustion without witnesses (not truncated) is
    evidence of correctness within the bound. *)

type witness = {
  decisions : int array;  (** the branch choices that produce the violation *)
  report : Consensus_check.report;
}

type stats = {
  executions : int;  (** runs performed *)
  max_choice_points : int;  (** longest branchable decision vector seen *)
  witnesses : witness list;  (** at most [max_witnesses], in discovery order *)
  truncated : bool;
      (** true if the execution cap was hit or some run had more branch
          points than [max_branch_depth] — in which case an empty witness
          list is inconclusive *)
}

val pp_stats : Format.formatter -> stats -> unit

val explore :
  ?max_executions:int ->
  ?max_branch_depth:int ->
  ?max_witnesses:int ->
  ?explore_schedules:bool ->
  ?explore_faults:bool ->
  ?forced_outcome:
    (Ffault_fault.Injector.ctx ->
    options:Ffault_sim.Engine.outcome_choice list ->
    Ffault_sim.Engine.outcome_choice) ->
  ?initial_prefix:int array ->
  ?on_report:(int array -> Consensus_check.report -> unit) ->
  Consensus_check.setup ->
  stats
(** Defaults: 200_000 executions, depth 64, 1 witness, both dimensions
    explored. Fault options are drawn from the setup's [allowed_faults]
    and [payload_palette], subject to the (f, t) budget — exactly the
    adversary of the paper's model.

    [forced_outcome] replaces fault branching with a fixed adversary
    policy: fault choices stop being branch points and instead follow the
    policy (used by the Theorem 18 reduced model, where one process's
    CASes are always faulty). Implies fault choices are not explored.

    [initial_prefix] roots the search at the subtree below a given
    decision vector (used by the valency analysis).

    [on_report] observes every completed execution. *)

val replay : ?trace:bool -> Consensus_check.setup -> int array -> Consensus_check.report
(** Re-execute one decision vector (e.g. a stored witness) and return its
    report, for rendering traces. [trace] (default [true]) is
    {!Consensus_check.run_with_driver}'s: with [false] the report's
    [result.trace] is [[]] and every other field is the traced replay's,
    which is all a caller that reads only {!Consensus_check.ok} needs. *)
