(** Journal aggregation: per-cell statistics, rendered reports, and
    regression diffs between two campaign runs.

    Aggregation is one streaming pass: each record is folded into its
    cell's accumulators ({!Ffault_stats.Summary}, which caps its
    percentile reservoir, and the cell's first few witnesses) and then
    dropped, and {!of_dir} reads the journal once, through
    {!Journal.scan}. So a report's memory grows with the grid's cells,
    not with the journal: million-trial journals aggregate in bounded
    memory. *)

type cell_stats = {
  cell : Grid.cell;
  in_envelope : bool;
      (** the protocol's theorem covers this cell — failures here are
          regressions, not data *)
  trials : int;
  failures : int;  (** [Violation] records only — see {!health} *)
  failure_rate : float;
  timeouts : int;
  quarantined : int;
  retries : int;
  steps : Ffault_stats.Summary.t;  (** per-trial worst ops/process *)
  total_faults : int;
  total_crashes : int;  (** crash-restarts charged across the cell's trials *)
  attr_crash_only : int;
      (** violating trials whose only charged faults were crash-restarts
          ({!Ffault_hoare.Classify.attribute}) *)
  attr_primitive_only : int;
      (** violating trials with primitive faults but no crash *)
  attr_mixed : int;  (** violating trials charging both dimensions *)
  min_witness_len : int option;  (** the length of [min_witness] *)
  min_witness : (int * int array) option;
      (** [(trial, vector)]: the cell's shortest witness, the lowest
          trial id on ties, or [None] without failures. The witnesses of
          the cell's {!Pool.default_max_shrinks_per_cell} lowest-id
          violations compete minimized ({!Shrink_on_fail.minimize} under
          {!Grid.setup}; raw when that fails), every other one raw. *)
  mean_wall_us : float;  (** over trials that actually ran *)
}
(** Crash statistics render (markdown columns, JSON fields) only when
    the spec sweeps a crash axis ({!Spec.has_crash_axes}) — crash-free
    reports keep their historical shape. *)

type health = {
  timeouts : int;
  quarantined : int;
  retries : int;
  degraded_cells : string list;  (** {!Grid.cell_key}s with quarantined trials *)
  journal : Journal.health option;  (** set by {!of_dir} *)
}
(** Harness health, distinct from protocol results: a [Timeout] is the
    harness giving up, a [Quarantined] trial never ran — neither counts
    as a failure, both are surfaced here (markdown [## Health] section,
    JSON ["health"] object — omitted from markdown when all-clean, so
    unsupervised reports keep their old shape). *)

type t = {
  spec : Spec.t;
  cells : cell_stats list;
  total_trials : int;
  total_failures : int;
  health : health;
  telemetry : Json.t option;
      (** the run's metrics snapshot ([telemetry.json], written by
          {!Pool.run_dir}); embedded as the report's ["telemetry"]
          object and rendered as a counters table in the markdown *)
  workers : Json.t option;
      (** [workers.json] — per-worker lease statistics a distributed
          coordinator leaves behind; embedded as the report's
          ["workers"] object and rendered as the markdown [## Workers]
          section (absent on single-process campaigns) *)
}

val of_records :
  ?telemetry:Json.t -> ?workers:Json.t -> Spec.t -> ((Journal.record -> unit) -> unit) -> t
(** [of_records spec iter] aggregates the records [iter] hands to the
    step it is given, which keeps none of them: [iter] may stream a
    journal ({!Journal.scan}) or a pool run ([fun step ->
    Pool.run_trials ~on_record:step spec]). [health.journal] is [None].
    [min_witness] and [min_witness_len] do not depend on the records'
    order. Minimizes at most {!Pool.default_max_shrinks_per_cell}
    witnesses per cell. *)

val of_dir : dir:string -> (t, string) result
(** Streams the journal once, through {!Journal.scan}: the same pass
    gives the records and the file's parse health, [health.journal]. *)

val to_markdown : t -> string

val write : dir:string -> t -> unit
(** Write [report.md] and [report.json] into the campaign directory. *)

(** {2 Comparing two campaigns} *)

type diff_row = {
  key : string;  (** {!Grid.cell_key} *)
  rate_a : float;
  rate_b : float;
  delta : float;
  steps_a : float;
  steps_b : float;
  regression : bool;
}

type diff = {
  rows : diff_row list;  (** cells present in both campaigns *)
  regressions : int;
  only_a : string list;
  only_b : string list;
}

val default_tolerance : float
(** 0.02 — failure-rate increase below this is sampling noise. *)

val diff : ?tolerance:float -> t -> t -> diff
(** B regressed against A on a cell if the cell newly fails (A had zero
    failures, B has some) or its failure rate rose by more than
    [tolerance]. *)

val pp_diff : Format.formatter -> diff -> unit
