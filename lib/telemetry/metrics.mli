(** Runtime metrics: sharded, allocation-free counters, gauges and
    histograms.

    Every metric owns one cache-padded slot per domain shard (domain id
    mod {!n_shards}); the hot paths touch only their own shard with a
    single [Atomic.fetch_and_add], so the simulator can count every
    engine step with near-zero cross-domain contention. Readers merge
    the shards on {!snapshot}, which is the only place totals exist.

    Metrics are process-global and registered by name at creation
    (creation is rare and locked; re-creating a name returns the
    existing metric, so modules can declare their instruments at
    top-level without coordination). Recording never allocates and
    never takes a lock. *)

val n_shards : int
(** Number of per-metric slots (a power of two). Concurrent domains
    whose ids collide modulo [n_shards] share a slot — still correct,
    merely contended. *)

(** {2 Counters} *)

type counter

val counter : string -> counter
(** Find-or-create the named counter. *)

val incr : counter -> unit
val add : counter -> int -> unit

(** {2 Gauges}

    Last-write-wins integer levels (queue depths, in-flight domains). *)

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> int -> unit
val add_gauge : gauge -> int -> unit

(** {2 Histograms}

    Power-of-two buckets over non-negative integer samples: bucket 0
    holds values [<= 0], bucket [i >= 1] holds [2^(i-1) .. 2^i - 1].
    Count and sum are exact; the bucket vector gives the shape. *)

type histogram

val histogram : string -> histogram
val observe : histogram -> int -> unit

val bucket_of : int -> int
(** The bucket index a value lands in (exposed for tests). *)

val bucket_upper_bound : int -> int
(** Largest value bucket [i] admits ([0] for bucket 0, [2^i - 1]
    otherwise, [max_int] for the last bucket). *)

(** {2 Snapshots} *)

type hist_view = {
  h_name : string;
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
      (** (upper bound, count) for each non-empty bucket, ascending *)
}

type snapshot = {
  counters : (string * int) list;  (** name-sorted, merged over shards *)
  gauges : (string * int) list;
  histograms : hist_view list;
}

val snapshot : unit -> snapshot
(** Merge every registered metric. Concurrent recording during a
    snapshot may or may not be included (each shard is read atomically;
    the merge is not a global atomic cut). *)

val find_counter : snapshot -> string -> int option
val find_histogram : snapshot -> string -> hist_view option

val reset : unit -> unit
(** Zero every registered metric (benches and tests; racy against
    concurrent writers by design). *)

val expose : ?snapshot:snapshot -> unit -> string
(** Prometheus text exposition of a snapshot (taken now if not given):
    every metric renamed to [ffault_<name>] with non-identifier
    characters mangled to ['_'], counters and gauges as single samples,
    histograms as cumulative [_bucket{le="..."}] series plus [_sum] and
    [_count]. Deterministic for a given snapshot (names are sorted),
    which is what the golden test and the [/metrics] endpoint rely
    on. *)
