(** The coordinator engine, independent of any transport.

    {!Coordinator.serve} owns sockets, [select] and the journal file;
    everything else — the lease table, per-worker bookkeeping, the
    exactly-once message handling — lives here, parameterized over an
    {!io} record and a {!Ffault_runtime.Clock.t}. The real driver
    instantiates it with {!Transport} connections and the monotonic
    clock; the netsim driver instantiates it with simulated connections
    and virtual time, so the very same engine code runs under
    deterministic fault schedules.

    The engine is single-threaded by contract: the driver serializes
    {!deliver}, {!tick}, {!client_closed} and {!finish} (the socket
    driver's select loop and the netsim scheduler both do). *)

module Campaign = Ffault_campaign

(** How the engine talks to a connection of type ['c]. [send] returning
    [Error] means the peer is gone — the engine drops the client. *)
type 'c io = {
  peer : 'c -> string;  (** human-readable address, for the Workers report *)
  send : 'c -> Codec.msg -> (unit, string) result;
  close : 'c -> unit;
}

type 'c t
type 'c client

(** {2 Workers}

    One record per worker the engine has heard from, keyed by its hello
    name: a row of the live view ({!view}, served as [/workers]) and of
    the final {!summary} (persisted as [workers.json]). A name
    reconnecting (its process restarted, or its connection was dropped
    for heartbeat silence) counts a reconnect. *)

type wview = {
  v_name : string;
  v_peer : string;  (** last known address *)
  v_domains : int;
  v_connected : bool;
  v_hb_age_s : float option;
      (** seconds since the engine last heard any frame from this
          worker, on the engine's clock; [None] before the first frame *)
  v_granted : int;
  v_completed : int;
  v_expired : int;  (** leases lost to disconnect, silence or reconcile *)
  v_results : int;  (** records journaled from this worker *)
  v_deduped : int;  (** zombie results dropped by trial-id dedup *)
  v_reconnects : int;
  v_telemetry : Campaign.Json.t option;
      (** last telemetry snapshot this worker piggybacked on a heartbeat
          ({!Ffault_campaign.Telemetry_io} shape); [None] for
          pre-observability workers *)
}

type summary = {
  pool : Campaign.Pool.summary;  (** same shape as a local run *)
  workers : wview list;  (** name-sorted, disconnected included *)
  epoch : int;  (** the finishing incarnation; restarts = epoch - 1 *)
  leases_granted : int;
  leases_completed : int;
  leases_expired : int;
  worker_spans : (string * Ffault_telemetry.Tracer.event list) list;
      (** the tracer events each worker shipped on its heartbeats
          while this process traced, as the codec decoded them, oldest
          first, cut to the newest 65,536 per worker
          ({!Ffault_campaign.Trace_merge.row}), name-sorted; only
          workers with any kept appear. Feeds
          {!Ffault_campaign.Trace_merge.write}. *)
}

val workers_json : summary -> Campaign.Json.t
(** The [workers.json] artifact (version 2): each {!wview} but its
    [v_connected] and [v_hb_age_s], plus, when any worker piggybacked
    telemetry, its last snapshot and a top-level ["fleet"] object
    summing the per-worker counters by name. *)

(** {2 Live inspection}

    A transport-free snapshot of the engine for the status endpoint:
    {!Status} renders it to JSON, the HTTP layer only moves bytes. Pure
    reads — taking a view never mutates the engine. *)

type view = {
  vw_campaign : string;
  vw_protocol : string;
  vw_epoch : int;  (** this incarnation (see {!create}'s [epoch]) *)
  vw_restarts : int;  (** [max 0 (epoch - 1)] — crash-restarts survived *)
  vw_stale_completes : int;  (** [Complete] frames fenced for a stale epoch *)
  vw_running : bool;
  vw_total : int;
  vw_done : int;  (** journaled, including prior-run skips *)
  vw_skipped : int;
  vw_executed : int;
  vw_failures : int;
  vw_timeouts : int;
  vw_retried : int;
  vw_quarantined : int;
  vw_elapsed_s : float;  (** engine-clock seconds since {!create} *)
  vw_workers_connected : int;
  vw_hb_interval_s : float;
  vw_lease_timeout_s : float;
  vw_leases_outstanding : int;
  vw_leases_pending : int;
  vw_leases_granted : int;
  vw_leases_completed : int;
  vw_leases_expired : int;
  vw_workers : wview list;  (** name-sorted, disconnected included *)
}

val view : 'c t -> view

(** {2 Engine lifecycle} *)

val create :
  ?clock:Ffault_runtime.Clock.t ->
  ?epoch:int ->
  ?fence_epochs:bool ->
  ?verify_complete:bool ->
  ?observe:(Campaign.Journal.record -> unit) ->
  ?on_event:(Ffault_telemetry.Events.severity -> string -> unit) ->
  ?on_requeue:(string -> int -> unit) ->
  ?on_drop:('c client -> unit) ->
  io:'c io ->
  append:(Campaign.Journal.record -> unit) ->
  st:Campaign.Checkpoint.t ->
  spec:Campaign.Spec.t ->
  lease_trials:int ->
  lease_timeout_s:float ->
  hb_interval_s:float ->
  max_workers:int ->
  supervision:Codec.supervision ->
  unit ->
  'c t
(** [append] journals one record (the socket driver appends to the
    journal file, netsim to an in-memory buffer); [st] is the resume
    mask [append] must stay consistent with. Creation runs {e recovery}:
    every shard [st] proves fully journaled is pre-retired, so a
    restarted incarnation never re-grants finished work — the lease
    table of the previous incarnation is lost with its process and
    deliberately not trusted.

    [on_event severity message] narrates the engine's lifecycle, each
    message graded where it is raised. [Warn]: a worker left, a lease
    was reclaimed from a departed worker, expired, came back
    [Complete] with unjournaled trials, or was reconciled at request
    with unjournaled trials; a [Complete] was fenced for a stale epoch.
    [Info]: recovery, a worker joined, a lease was granted, or retired
    at request.

    [max_workers] (at least 1) is the number of heartbeat slots: a
    worker takes a free one at its [Hello] and holds it until dropped,
    and a freed slot goes to the next [Hello]. A worker that joins with
    none free is watched by lease expiry alone.

    [epoch] (default 1, must be positive) is this incarnation's fencing
    token, from {!Campaign.Checkpoint.claim_ownership}: every [Welcome]
    and [Lease] carries it, and a [Complete] whose grant epoch differs
    is fenced — its trial results are still dedup-accepted by id, but
    the shard's fate is decided by the journal via the
    reconcile-at-request rule, never by a stale incarnation's
    bookkeeping. [fence_epochs:false] plants the stale-epoch-trust bug
    (netsim's fencing self-test). [on_requeue owner lease_id] fires
    whenever a lease of [owner] is requeued (expiry, disconnect,
    reconcile, or a holey [Complete]) — netsim's re-execution checker
    marks its reconcile points there.

    [on_drop] fires once per dropped client, before its connection is
    closed — the driver unindexes it there. [verify_complete] (default
    [true]) guards the journal-completeness check behind [Complete];
    netsim's mutation test switches it off to plant the
    lease-retirement bug that the fault-schedule search must catch. *)

val add_client : 'c t -> 'c -> 'c client
(** Register a fresh inbound connection (nothing is granted until its
    [Hello]). *)

val conn : 'c client -> 'c
val dropped : 'c client -> bool

val deliver : 'c t -> 'c client -> Wire.frame -> unit
(** Decode and handle one frame from this client. No-op once the client
    is dropped; an undecodable frame drops it. *)

val client_closed : 'c t -> 'c client -> why:string -> unit
(** The driver saw EOF or a transport error: requeue the client's
    leases and forget it. *)

val tick : 'c t -> unit
(** Time-based duties, driven by the engine's clock: expire silent
    leases, then drop every connected client whose heartbeat slot is
    older than the lease timeout (in client order, reason
    ["heartbeat silence (watchdog)"]). The socket driver calls it once
    per select round; netsim on a virtual timer. *)

val is_done : 'c t -> bool
(** Every trial id journaled. *)

val settled : 'c t -> bool
(** {!is_done}, and no lease is outstanding: every holder has sent its
    [Complete] (with the flush beat before it), been dropped, or let
    its lease expire. {!Coordinator.serve} serves until then. *)

val finish : 'c t -> unit
(** Shutdown sweep: retire fully-journaled live leases whose [Complete]
    is still in flight, send every client a [Bye] and drop it. *)

val summary : 'c t -> wall_s:float -> summary
