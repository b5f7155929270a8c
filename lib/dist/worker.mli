(** The distributed-campaign worker: [ffault worker].

    A worker owns no campaign state. It connects to a coordinator,
    introduces itself ([Hello]), learns the spec and supervision
    settings from the [Welcome], then loops: request a lease, run the
    lease's trial ids ({!Protocol.ids_to_run}) through one call of the
    ordinary in-memory engine ({!Ffault_campaign.Pool.run_trials}),
    send one [Result] frame per record, and send [Complete]. A lease's
    first [Result] is written at once; the rest are pushed
    ({!Transport.push_msg}) and written 64 frames per [write], and
    every other frame the worker sends — a heartbeat, the flush beat,
    the [Complete], the next [Request] — writes the pending group ahead
    of itself, so the order on the wire is the order of the calls.
    Domains, deadlines and retries behave as in a local run, and a
    lease's records equal those of a local run apart from [wall_us]. The
    supervision state a pool call keeps starts fresh per lease: each
    cell's quarantine strikes count only that lease's trials.
    [Wait] (every shard is leased) bounds how long it idles before
    asking again; it idles watching its socket, so the [Bye] sent when
    the campaign completes (or a closed socket) ends it at once.

    {b Reconnection.} A lost connection — including a coordinator that
    crashed and is restarting — does not kill the worker. It retries
    the connect under a bounded {!Ffault_supervise.Retry} backoff
    schedule (seeded by the worker name, so a fleet does not
    thundering-herd), re-[Hello]s carrying the last coordinator epoch
    it saw, and resumes requesting leases. A lease that was in flight
    when the connection died is {e not} re-executed: its records were
    produced locally and are replayed to the new connection, pushed in
    groups as above, then its [Complete] under the original grant
    epoch — the coordinator dedups the records by trial id and fences a
    stale-epoch [Complete], so at most bookkeeping (never trials) is
    redone. Consecutive failures beyond the policy's [max_retries] end
    the worker with an error.

    A background thread heartbeats at the cadence the [Welcome]
    dictates, so a worker grinding through a slow trial range never
    looks silent to the coordinator's heartbeat check, and no pushed
    [Result] waits longer than one interval to be written. Results are
    sent from the engine's serialized [on_record] path and heartbeats
    from the thread; the connection's send mutex interleaves them
    safely.

    Each beat piggybacks this process's telemetry snapshot and — when
    {!Ffault_telemetry.Tracer} is enabled — the span events recorded
    since the last beat, so the coordinator can aggregate fleet-wide
    metrics and a cross-process trace without any extra connection. A
    beat ships at most the newest
    {!Ffault_telemetry.Tracer.default_capacity} of them, all the
    coordinator's row of this worker keeps, so a drain of several full
    rings stays under the wire's frame cap. A final flush beat precedes
    every [Complete], catching the tail of the last lease.

    Workers are deliberately crash-oblivious: they journal nothing and
    resume nothing. If one dies mid-lease, the coordinator re-leases the
    shard with the journaled trial ids excluded — the exactly-once
    guarantee lives entirely on the coordinator side. A killed worker
    loses at most its unsent group: up to 63 records, or one heartbeat
    interval's worth; their trials are re-run under the re-lease. *)

type config = {
  endpoint : Transport.endpoint;
  name : string;  (** identity shown in the coordinator's Workers report *)
  domains : int;  (** engine domains for each lease *)
}

val config : ?name:string -> ?domains:int -> Transport.endpoint -> config
(** Default name [<hostname>-<pid>], 1 domain.
    @raise Invalid_argument if [domains < 1]. *)

val default_retry : Ffault_supervise.Retry.policy
(** The default (re)connect backoff: 8 retries, 250 ms base, 5 s cap —
    sized to ride out a coordinator crash plus restart. *)

(** The worker side of the protocol as pure frame classification,
    shared by this blocking socket driver and the netsim worker actor
    (so the simulated worker cannot drift from the real one). *)
module Protocol : sig
  type welcome = {
    epoch : int;  (** the coordinator incarnation granting from here on *)
    spec : Ffault_campaign.Spec.t;
    supervision : Ffault_campaign.Pool.supervision;
        (** validated by the codec: the worker's pools run under it as is *)
    hb_interval_s : float;
  }

  val hello : name:string -> domains:int -> last_epoch:int -> Codec.msg
  (** The [Hello] carrying {!Wire.version} and the last coordinator
      epoch this worker saw (0 before any [Welcome]). *)

  val welcome_reply : Codec.msg -> (welcome, string) result
  (** Classify the reply to [Hello]: a matching-version [Welcome], or
      the error to stop with (version mismatch, [Bye], junk). *)

  type reply =
    | Granted of { lease : int; epoch : int; lo : int; hi : int; done_ids : int list }
        (** [epoch] is the grant's fencing token, echoed on [Complete] *)
    | Backoff of float
        (** [Wait]: retry the request after at most this many seconds;
            a frame arriving sooner (the final [Bye]) is handled at once *)
    | Stop of string  (** [Bye]: campaign over *)
    | Ignore  (** a stray [Heartbeat]: tolerated, request again *)
    | Unexpected of string

  val lease_reply : Ffault_campaign.Spec.t -> Codec.msg -> reply
  (** Classify the reply to [Request] under the [Welcome]'s spec. A
      [Lease] whose [\[lo, hi)] is not inside the spec's grid is
      [Unexpected]: a protocol error, not work. *)

  val ids_to_run : lo:int -> hi:int -> done_ids:int list -> (int * int) list
  (** The trial ids of a lease still needing execution — [\[lo, hi)]
      minus the already-journaled [done_ids] — as ascending, disjoint,
      maximal, non-empty [\[lo, hi)] ranges, the shape
      {!Ffault_campaign.Pool.run_trials} takes. [done_ids] may come in
      any order, repeat, or lie outside the lease. *)
end

type summary = {
  leases_run : int;
  trials_run : int;  (** records streamed (excludes [done_ids] skips) *)
  trials_skipped : int;  (** [done_ids] on re-leases — already journaled *)
  reconnects : int;  (** established sessions lost and re-established *)
  stop_reason : string;  (** the coordinator's [Bye] reason, or the error *)
}

val run :
  ?on_event:(string -> unit) ->
  ?on_warn:(string -> unit) ->
  ?retry:Ffault_supervise.Retry.policy ->
  ?trace_path:string ->
  config ->
  (summary, string) result
(** Serve leases until the coordinator says [Bye] (normal completion,
    [Ok]) or the connect/reconnect budget is exhausted ([Error]).
    [on_event] receives one-line lease lifecycle messages; [on_warn]
    receives connection-trouble messages (failed connects, lost
    sessions) with the scheduled retry. [retry] bounds the backoff
    schedule ({!default_retry} if omitted). [trace_path] additionally
    writes this worker's own spans on exit, through
    {!Ffault_campaign.Trace_merge.write}, as a one-row Chrome trace
    named after the worker that keeps its newest 65,536 events
    (requires the tracer enabled to record anything). *)
