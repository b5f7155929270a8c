(** The campaign executor: a work-stealing domain pool over the trial
    grid.

    Trials are claimed in chunks of 64 from a shared counter
    ({!Ffault_runtime.Runner.run_tasks}), executed concurrently on
    OCaml 5 domains, and streamed — serialized — to the caller as
    {!Journal.record}s. Every record but its [wall_us] depends only on
    (spec, trial id), so records are identical for any [domains] value,
    any split of the ids into calls, and any resume; only journal order
    varies. The exception is a {e supervised} run (a {!supervision} with
    a deadline): deadline, retry and quarantine decisions are wall-clock
    dependent by nature, and records they produce say so in their
    [outcome] field. *)

type supervision = {
  deadline_s : float option;
      (** per-trial wall-clock deadline; [None] disables supervision
          (no deadline, retries or strikes) *)
  retry : Ffault_supervise.Retry.policy;
  quarantine_after : int;  (** deterministic-protocol strikes to degrade a cell *)
  adaptive_deadline : bool;
      (** derive a per-cell deadline from that cell's observed trial
          durations (a multiple of its p99, capped at [deadline_s]) once
          {!adaptive_min_samples} trials have completed — cuts tail
          latency on mixed grids where one global deadline must be sized
          for the slowest cell *)
}

val default_supervision : supervision
(** No deadline; {!Ffault_supervise.Retry.default_policy}; 3 strikes;
    no adaptive deadline. *)

val supervision :
  ?deadline_s:float ->
  ?max_retries:int ->
  ?quarantine_after:int ->
  ?adaptive_deadline:bool ->
  unit ->
  supervision
(** @raise Invalid_argument on a non-positive deadline,
    [quarantine_after < 1], or [adaptive_deadline] without a deadline
    (the adaptation needs a cap). *)

(** {2 Adaptive deadline derivation} (exposed for tests) *)

val adaptive_min_samples : int
(** 30 — completed trials a cell must show before its deadline adapts;
    below this the global deadline applies. *)

val adaptive_deadline_s : p99_s:float -> cap_s:float -> float
(** The derived deadline: [8 × p99], clamped to [\[1ms, cap_s\]]. A
    non-finite or negative p99 yields [cap_s] (never a tighter bound on
    garbage data). *)

type summary = {
  total : int;  (** grid size *)
  executed : int;  (** trials run by this call (includes quarantine skips) *)
  skipped : int;
      (** grid trials this call was not asked to run (on resume, the
          already-journaled ones) *)
  failures : int;  (** violating trials among [executed] *)
  timeouts : int;  (** trials whose every attempt hit the deadline *)
  retried : int;  (** total retry attempts across all trials *)
  quarantined : int;  (** trials skipped because their cell degraded *)
  wall_s : float;
  trials_per_s : float;
}

val pp_summary : Format.formatter -> summary -> unit
(** Prints ["rate n/a"] instead of a number when the rate is zero or
    non-finite. *)

val trials_rate : executed:int -> wall_s:float -> float
(** [executed / wall_s], guarded: 0.0 (never [inf]/[nan]) when nothing
    executed or the wall time is below the clock's meaningful
    resolution (1 µs) — tiny grids on fast machines otherwise journal
    infinite rates. *)

val default_max_shrinks_per_cell : int
(** 5 — the failures per cell, lowest trial ids first, whose witnesses
    {!Report.of_records} minimizes (minimizing every failure of a
    hopeless cell would cost more than the campaign). *)

val run_trials :
  ?domains:int ->
  ?ids:int list ->
  ?supervision:supervision ->
  on_record:(Journal.record -> unit) ->
  Spec.t ->
  summary
(** In-memory engine: run each trial id of [ids] (default every id of
    the grid, [0 … total−1]) and hand each record to [on_record], which
    is called under a single lock and need not synchronize. The ids must
    be distinct; on 1 domain they run in list order. A distributed lease
    passes its range minus the ids already journaled, a resumed
    {!run_dir} the ids its journal lacks. Defaults: 1 domain,
    {!default_supervision} (unsupervised).

    With a deadline set, each trial runs under a cancellation token
    polled by the engine; a timed-out attempt retries (same seed, so a
    deterministic trial reproduces; backoff seed-perturbed) up to the
    retry policy, then journals a [Timeout] record and strikes its cell;
    a cell with [quarantine_after] strikes degrades, and its remaining
    trials journal [Quarantined] records without running — which is what
    bounds a campaign over pathological cells to finitely many deadline
    waits.

    A failing trial runs once and journals that run's decision vector as
    its witness; nothing is minimized here. [wall_us] covers the run
    alone.
    @raise Invalid_argument if the spec's protocol does not resolve,
    [domains < 1], or an id lies outside the grid — raised when that
    id's turn comes, so the ids before it may already have run. *)

val run_dir :
  ?domains:int ->
  ?supervision:supervision ->
  ?resume:bool ->
  ?on_skip:(unit -> unit) ->
  ?observe:(Journal.record -> unit) ->
  ?on_warn:(string -> unit) ->
  root:string ->
  Spec.t ->
  (summary, string) result
(** Persistent campaign under [root/<spec name>/]: writes the manifest,
    appends every record to the journal (written out in groups of 64 and
    at close, on every exit path; see {!Journal}), and — with
    [resume] (default false) — first repairs a crash-torn journal tail
    ({!Journal.recover}, reported through [on_warn], default silent),
    then replays the journal and runs only the trial ids it lacks.
    [observe] sees each record right after its journal append
    (serialized; live progress hooks in here); [on_skip] is called once
    per already-journaled trial, before the first trial runs
    ({!Checkpoint.open_campaign}). On success also snapshots the process
    metrics to [telemetry.json] ({!Telemetry_io}). Errors: the campaign
    already exists (fresh run), or the on-disk manifest disagrees with
    [spec] (resume). *)
