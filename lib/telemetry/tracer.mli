(** Span tracing in the Chrome [trace_event] format.

    Begin/end/instant events are stamped with the monotonic clock and
    written into per-domain ring buffers (oldest events overwritten when
    a ring fills), then {!drain}ed into
    [Ffault_campaign.Trace_merge], which writes the Chrome trace that
    loads in [chrome://tracing] or {{:https://ui.perfetto.dev}Perfetto}
    — so a whole campaign (pool chunks, trials, journal writes) can be
    inspected on a timeline.

    The tracer is disabled by default and every recording call starts
    with one atomic load — a disabled tracer is a no-op, which is the
    performance contract that lets the runtime and campaign layers stay
    instrumented unconditionally. Enabled recording takes a per-ring
    mutex (rings are sharded by domain id, so it is almost always
    uncontended). *)

val default_capacity : int
(** 65 536 events per domain ring. *)

val enable : ?capacity:int -> unit -> unit
(** Clear all rings and start recording.
    @raise Invalid_argument if [capacity < 2]. *)

val disable : unit -> unit
(** Stop recording; already-buffered events survive until the next
    {!enable} and can still be {!drain}ed. *)

val enabled : unit -> bool

(** {2 Recording} *)

val begin_span : ?cat:string -> string -> unit
val end_span : ?cat:string -> string -> unit
(** Durations nest per domain: Chrome matches each ["E"] with the most
    recent unmatched ["B"] on the same thread track. *)

val instant : ?cat:string -> string -> unit

val with_span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [begin_span]/[end_span] around the thunk (end emitted on exceptions
    too). *)

(** {2 Draining} *)

(** One buffered event. The trace writer turns a drained list into a
    Chrome trace row; a worker ships drained batches to the coordinator,
    which writes them as one row per worker. *)
type event = {
  ph : char;  (** ['B'] | ['E'] | ['i'] *)
  name : string;
  cat : string;
  ts_ns : int;
  tid : int;  (** domain id *)
}

val drain : unit -> event list
(** Remove and return every buffered event, oldest first, so repeated
    drains see each event exactly once (the drop count is kept). A ring
    that overwrote events leaves spans unbalanced; the writer repairs
    them. *)

val event_count : unit -> int
(** Events currently buffered (post-overwrite). *)

val dropped_count : unit -> int
(** Events lost to ring overwrites since {!enable}. *)
