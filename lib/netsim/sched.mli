(** The deterministic event scheduler: virtual time plus an ordered
    queue of thunks.

    Events execute in [(time, insertion-seq)] order — ties broken by
    who scheduled first — and the {!Ffault_runtime.Clock.Virtual} clock
    is set to each event's timestamp before it runs, so every timeout,
    lease expiry and heartbeat-silence decision made by code reading
    {!clock} is a pure function of the event sequence. Nothing here
    reads the wall clock. The keys are unique, so that order is total
    and does not depend on how the queue is stored: a binary min-heap,
    where {!at} and each executed event cost O(log pending). *)

type t

val create : ?start_ns:int -> unit -> t

val clock : t -> Ffault_runtime.Clock.t
(** The virtual clock, for injection into {!Ffault_dist.Core},
    {!Ffault_dist.Lease} and friends. *)

val now_ns : t -> int

val at : t -> ns:int -> (unit -> unit) -> unit
(** Schedule at absolute virtual time [ns] (clamped to now — the
    simulator never schedules into the past). *)

val after : t -> ns:int -> (unit -> unit) -> unit
(** Schedule [ns] from now.
    @raise Invalid_argument if [ns < 0]. *)

val pending : t -> int
(** Events queued and not yet executed; O(1). *)

val run : t -> until_ns:int -> [ `Drained | `Horizon ]
(** Execute events in order until the queue drains or the next event
    would fire past [until_ns] (the horizon — a stalled simulation's
    backstop). The clock is left at the last executed event's time
    ([`Drained]) or at [until_ns] ([`Horizon]). *)

val executed : t -> int
(** Events executed so far (for the harness's stats line). *)
