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
  max_retries : int;
      (** timed-out attempts of one trial to retry, after a backoff
          within {!Ffault_supervise.Retry.default_policy}'s bounds *)
  quarantine_after : int;  (** deterministic-protocol strikes to degrade a cell *)
}
(** The three values of [campaign run|resume|serve]'s supervision flags,
    and of the supervision a coordinator's [Welcome] carries. *)

val default_supervision : supervision
(** No deadline; {!Ffault_supervise.Retry.default_policy}'s 2 retries; 3
    strikes. *)

val supervision :
  ?deadline_s:float -> ?max_retries:int -> ?quarantine_after:int -> unit -> supervision
(** @raise Invalid_argument on a non-positive deadline, a negative
    [max_retries] or [quarantine_after < 1]. *)

(** The outcomes of the records one executor journals, counted as they
    come: the pool's and a distributed coordinator's. *)
type tally = {
  mutable executed : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable retried : int;
  mutable quarantined : int;
}

val tally : unit -> tally
(** All zero. *)

val count : tally -> Journal.record -> unit
(** Counts one journaled record: [executed] always, [retried] by its
    retries, and [failures], [timeouts] or [quarantined] by its
    outcome. *)

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

val summarize : tally -> total:int -> skipped:int -> wall_s:float -> summary
(** The tally's counts, with [trials_per_s] from {!trials_rate}. *)

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
  ?ids:(int * int) list ->
  ?supervision:supervision ->
  on_record:(Journal.record -> unit) ->
  Spec.t ->
  summary
(** In-memory engine: run each trial id of the [\[lo, hi)] ranges [ids]
    (default [\[(0, total)\]], the whole grid) and hand each record to
    [on_record], which is called under a single lock and need not
    synchronize. The ranges must be disjoint; on 1 domain their ids run
    in list order, one runner task per id. A distributed lease passes
    its range minus the ids already journaled, {!run_dir} the ids its
    journal lacks ({!Checkpoint.remaining}). Defaults: 1 domain,
    {!default_supervision} (unsupervised).

    With a deadline set, each attempt runs under a cancellation token
    that expires [deadline_s] after it starts, polled by the engine; a
    timed-out attempt retries (same seed, so a deterministic trial
    reproduces; backoff seed-perturbed) up to [max_retries] times, then
    journals a [Timeout] record and strikes its cell;
    a cell with [quarantine_after] strikes degrades, and its remaining
    trials journal [Quarantined] records without running — which is what
    bounds a campaign over pathological cells to finitely many deadline
    waits.

    A failing trial runs once and journals that run's decision vector as
    its witness; nothing is minimized here. [wall_us] covers the run
    alone.
    @raise Invalid_argument if the spec's protocol does not resolve,
    [domains < 1] or a range ends before it starts, and when the turn of
    an id outside the grid comes, so the ids before it may already have
    run. *)

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
