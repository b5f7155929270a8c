(** Persisting {!Ffault_telemetry.Metrics} snapshots as campaign
    artifacts.

    A campaign run ends by dumping the process-wide metrics snapshot to
    [<dir>/telemetry.json]; {!Report.of_dir} picks it up and embeds it
    as the report's ["telemetry"] object, so step/fault/flush counters
    travel with the campaign's other artifacts. *)

val snapshot : unit -> Ffault_telemetry.Metrics.snapshot
(** The process's metrics snapshot, its [process.peak_rss_kb] gauge set
    first to the process's peak resident set so far ([VmHWM] in
    [/proc/self/status], in KiB; 0 where that file cannot be read). The
    snapshot written to [telemetry.json] and piggybacked on a worker's
    heartbeats. *)

val to_json : Ffault_telemetry.Metrics.snapshot -> Json.t
(** [{"counters": {...}, "gauges": {...}, "histograms": {name:
    {"count", "sum", "buckets": [[upper_bound, count], ...]}}}]. *)

val write : dir:string -> Ffault_telemetry.Metrics.snapshot -> unit
(** Write [telemetry.json] into the campaign directory. *)

val load : dir:string -> Json.t option
(** The parsed [telemetry.json], or [None] if absent/unparsable (older
    campaigns have no snapshot; a report must still render). *)
