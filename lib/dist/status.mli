(** Response building for the coordinator's read-only status endpoint —
    transport-free.

    {!Http} moves bytes; this module decides them. Everything here is a
    pure function of a {!Core.view}, an event tail, and a metrics
    exposition, so the netsim driver can probe the very same responses
    under virtual time and golden-test them byte-for-byte (no pids, no
    wall-clock, no socket addresses sneak in). *)

(** Where responses read their data. [view] is {!Core.view} partially
    applied to the engine; [events] tails the coordinator's
    {!Ffault_telemetry.Events} log; [metrics] is
    {!Ffault_telemetry.Metrics.expose} (or a pinned exposition in
    tests). *)
type source = {
  view : unit -> Core.view;
  events : limit:int -> Ffault_telemetry.Events.event list;
  metrics : unit -> string;
}

type response = { code : int; content_type : string; body : string }

val event_json : Ffault_telemetry.Events.event -> Ffault_campaign.Json.t
(** One event as the coordinator's [events.jsonl] line and its [/events]
    entry: [{"seq":..,"ts_ns":..,"severity":"..","scope":"..","msg":".."}]. *)

val respond : source -> string -> response
(** Dispatch a request path ([/status], [/workers], [/metrics],
    [/events]; [/] aliases [/status]; query strings ignored) to its
    response. Unknown paths get a 404 JSON body listing the
    endpoints.

    - [/status]: campaign identity, progress counts,
      [elapsed_s]/[trials_per_s]/[eta_s] ([eta_s] is [null] when done
      or rate-less), connected workers, and the lease table totals.
    - [/workers]: per-worker rows (name-sorted, disconnected workers
      included) with [connected], [hb_age_s] ([null] before any frame),
      and [stale] — heartbeat age above twice the heartbeat interval,
      judged by age alone so a killed worker is flagged whether or not
      its socket has EOFed yet.
    - [/events]: the newest 256 events. *)
