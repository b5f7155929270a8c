(** A structured event log: ring-buffered, severity-tagged, monotonic
    timestamps, optional key/value fields, JSONL rendering.

    Where {!Metrics} counts and {!Tracer} times, [Events] narrates:
    worker joins, lease churn, heartbeat-silence drops — the discrete
    lifecycle facts an operator greps for. Each log is an instance (the
    coordinator owns one per campaign) with an injectable clock, so the
    netsim driver can feed one under virtual time and the resulting
    [/events] JSON is a pure function of the schedule.

    Under pressure the ring overwrites its oldest entry and counts the
    loss ({!dropped}) — emitting never blocks and never allocates
    beyond the event itself. An optional sink receives each event as a
    JSONL line at emit time (the coordinator streams [events.jsonl]
    into the campaign directory through it). *)

type severity = Debug | Info | Warn | Error

val severity_to_string : severity -> string
(** ["debug"] / ["info"] / ["warn"] / ["error"]. *)

val severity_of_string : string -> severity option

type event = {
  seq : int;  (** 0-based emission index, never reused *)
  ts_ns : int;  (** monotonic stamp from the log's clock *)
  severity : severity;
  scope : string;  (** subsystem, e.g. ["dist"] *)
  message : string;
  fields : (string * string) list;
}

type t

val default_capacity : int
(** 1024 events. *)

val create : ?capacity:int -> ?now:(unit -> int) -> unit -> t
(** A fresh log. [now] defaults to the process monotonic clock
    ({!Clock.now_ns}); inject a virtual source for determinism.
    @raise Invalid_argument if [capacity < 2]. *)

val emit :
  t -> ?severity:severity -> ?fields:(string * string) list -> scope:string -> string -> unit
(** Record one event (default severity [Info]). If the ring is full the
    oldest event is overwritten and counted in {!dropped}. *)

val set_sink : t -> (string -> unit) option -> unit
(** Attach (or detach) a line consumer: every subsequent {!emit} also
    renders the event with {!json_line} and passes it on. The sink runs
    outside the log's lock, in the emitting thread. *)

val tail : ?limit:int -> t -> event list
(** The buffered events oldest-first; with [limit], only the newest
    [limit] of them. *)

val json_line : event -> string
(** One JSONL object:
    [{"seq":..,"ts_ns":..,"severity":"..","scope":"..","msg":"..","fields":{..}}]
    ([fields] omitted when empty). *)

val emitted : t -> int
(** Total events ever emitted (the next event's [seq]). *)

val buffered : t -> int
(** Events currently held (≤ capacity). *)

val dropped : t -> int
(** Events lost to ring overwrite since creation/{!clear}. *)

val clear : t -> unit
(** Empty the ring and reset [seq] and the drop count. *)
