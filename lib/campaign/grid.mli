(** Deterministic expansion of a {!Spec} into the trial grid.

    Cells enumerate the cartesian product of the spec's axes in a fixed
    nesting order (f, then t, then n, then kind, then rate, then the
    crash axes: crashes, crash rate, persistence); trial ids are dense:
    trial [id] belongs to cell [id / trials]. The crash axes are
    innermost so crash-free specs keep their historical cell order. Every trial's
    seed is derived statelessly from the root seed and its id with the
    SplitMix finalizer, so any domain can compute any trial's seed
    without coordination and a campaign is exactly replayable from its
    manifest. *)

type cell = {
  f : int;
  t : int option;
  n : int;
  kind : Ffault_fault.Fault_kind.t;
  rate : float;
  crashes : int;  (** per-process crash cap; 0 = crash-free *)
  crash_rate : float;  (** per-operation crash probability *)
  persistence : Ffault_recover.Persistence.mode;
}

type trial = {
  id : int;  (** dense in [\[0, total_trials)] *)
  cell_id : int;
  cell : cell;
  index : int;  (** trial number within its cell *)
  seed : int64;  (** the trial's full entropy *)
}

val cells : Spec.t -> cell array
val n_cells : Spec.t -> int
val total_trials : Spec.t -> int

val crash_plan_seed : Spec.t -> int64 -> int64
(** [crash_plan_seed spec trial_seed] — the seed of the trial's crash
    plan: the spec's [crash_seed] mixed into the trial seed, so varying
    [--crash-seed] re-rolls crash schedules without touching the
    primitive-fault schedules. *)

val trial : Spec.t -> int -> trial
(** @raise Invalid_argument if [id] is out of range. *)

val trial_of_cells : Spec.t -> cell array -> int -> trial
(** Like {!trial} with a pre-computed {!cells} array (the executor's hot
    path). *)

val setup : cell -> Ffault_consensus.Protocol.t -> Ffault_verify.Consensus_check.setup
(** The checker setup a cell's trials run under: the cell's (f, t, n)
    params with only the cell's fault kind allowed, and — when the cell
    has [crashes > 0] — the crash cap and persistence mode armed. *)

val in_envelope : cell -> Ffault_consensus.Protocol.t -> bool
(** Whether the protocol's theorem covers this cell (violations inside
    the envelope are regressions; outside, expected data). The kind
    matters: each theorem is stated for one fault kind (overriding for
    the CAS constructions, silent for silent-retry) — a cell injecting
    any other kind is out of envelope regardless of (f, t, n). A cell
    with crash-restarts is only in envelope for protocols that declare a
    recovery section. *)

val cell_key : cell -> string
(** Canonical axis string, the join key for campaign diffs. Crash-free
    cells render exactly as before the crash axes existed, so old and
    new journals keep joining. *)
