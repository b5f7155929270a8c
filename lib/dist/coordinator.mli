(** The distributed-campaign coordinator: [ffault campaign serve].

    One process owns the campaign directory — manifest, journal,
    telemetry — and hands the trial grid out to {!Worker} processes as
    leases over the wire ({!Codec}). The journal stays the single
    source of truth, which is what makes recovery exactly-once:

    - a lease is only {e retired} once every one of its trials is
      journaled and the worker's [Complete] frame arrives;
    - a worker death (socket EOF, error, or a heartbeat slot silent past
      the lease timeout) merely requeues its shards, and the
      re-lease carries the trial ids already journaled so the next
      worker skips them;
    - a result for an already-journaled trial — a zombie worker
      streaming under an expired lease — is dropped before the journal
      sees it (deduped by trial id, counted in [dist.results_deduped]).

    So trials may {e execute} more than once across worker crashes, but
    each is {e journaled} exactly once — the same discipline
    single-process resume already guarantees, now over crash-prone
    distributed workers (cf. Golab's recoverable consensus).

    The loop is single-threaded ([select] over the listener and every
    worker socket), so journal writes, lease bookkeeping and the
    checkpoint mask need no further synchronization. A turn makes one
    read of at most 64 KiB from each readable worker socket; workers
    write their [Result]s in groups of up to 64 frames, so a turn's
    records are up to one such read per worker. Each turn of the loop
    ends with one {!Ffault_campaign.Journal.flush}, so a record never
    waits out the next [select]; a killed coordinator loses at most its
    last turn's records, which the next epoch re-leases.

    All of the message handling lives in the transport-independent
    {!Core} engine; this module is the socket driver around it (the
    netsim driver in [lib/netsim] reuses the same engine on a simulated
    network with virtual time). *)

type config = {
  endpoint : Transport.endpoint;
  lease_trials : int;  (** trials per lease shard *)
  lease_timeout_s : float;
      (** a lease silent this long expires; a connection whose
          heartbeat slot is silent this long is dropped *)
  hb_interval_s : float;  (** heartbeat cadence imposed on workers *)
  max_workers : int;
      (** heartbeat slots: the first [max_workers] connected workers get
          one, and their silence is judged on it. Every connection is
          accepted; a worker beyond [max_workers] is watched by lease
          expiry alone. *)
  supervision : Codec.supervision;  (** forwarded to every worker *)
}

val config :
  ?lease_trials:int ->
  ?lease_timeout_s:float ->
  ?hb_interval_s:float ->
  ?max_workers:int ->
  ?supervision:Codec.supervision ->
  Transport.endpoint ->
  config
(** Defaults: 1000 trials per lease, 30 s lease timeout, heartbeat
    every 2 s, 64 workers, no supervision.
    @raise Invalid_argument on non-positive sizes/timeouts or a
    heartbeat interval not under the lease timeout. *)

type summary = Core.summary = {
  pool : Ffault_campaign.Pool.summary;  (** same shape as a local run *)
  workers : Core.wview list;
      (** persisted as [workers.json], rendered by [campaign report]'s
          Workers section *)
  epoch : int;  (** the finishing incarnation ([owner.json]) *)
  leases_granted : int;
  leases_completed : int;
  leases_expired : int;
  worker_spans : (string * Ffault_telemetry.Tracer.event list) list;
      (** per-worker span events shipped on heartbeats, each
          worker's newest 65,536, name-sorted: the worker rows of
          [serve --trace]'s file *)
}

val serve :
  ?resume:bool ->
  ?observe:(Ffault_campaign.Journal.record -> unit) ->
  ?on_skip:(unit -> unit) ->
  ?on_warn:(string -> unit) ->
  ?on_event:(string -> unit) ->
  ?status:Transport.endpoint ->
  root:string ->
  config ->
  Ffault_campaign.Spec.t ->
  (summary, string) result
(** Run the campaign to completion: listen, lease, journal, and return
    once every trial id is journaled and no lease is outstanding
    ({!Core.settled}; workers get a [Bye] and the listener closes). The
    finishing worker's flush beat and [Complete] are read before that,
    so its last lease is in the fleet table; a holder that goes silent
    instead costs at most the lease timeout. [observe] sees each record
    after its journal append; [on_skip] fires once per already-journaled
    trial on resume, before serving (both as in
    {!Ffault_campaign.Pool.run_dir}, so the live progress line plugs in
    unchanged). [on_event] receives one-line
    join/leave/lease lifecycle messages; the same messages also land,
    at the severity {!Core} raised them with, in a structured
    {!Ffault_telemetry.Events} log that is streamed to
    [<dir>/events.jsonl] and served by [/events].
    [status] additionally serves the read-only {!Status} endpoint
    ([/status], [/workers], [/metrics], [/events]) over {!Http} from
    inside the same select loop. Also writes [telemetry.json]
    (including the [dist.*] counters) and [workers.json] on success. *)
