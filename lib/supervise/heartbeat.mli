(** Per-worker liveness beacons.

    Each slot (a multicore trial's domain, a coordinator's connected
    worker) calls {!beat} at natural progress points — before each CAS,
    on each received frame — and staleness is judged from the recorded
    timestamps: by a {!Watchdog} for multicore domains, by a direct
    {!age_ns} read in the coordinator.
    Beating is one atomic store on the slot's own word plus a sharded
    counter bump; it is safe from any domain or thread.

    Timestamps come from {!Ffault_runtime.Clock.monotonic} by default;
    tests and the netsim scheduler inject a
    {!Ffault_runtime.Clock.Virtual} clock instead. *)

type t

val create : ?clock:Ffault_runtime.Clock.t -> slots:int -> unit -> t
(** [slots] independent beacons, all initially silent. [clock] defaults
    to {!Ffault_runtime.Clock.monotonic}.
    @raise Invalid_argument if [slots < 1]. *)

val slots : t -> int

val clock : t -> Ffault_runtime.Clock.t
(** The clock beats are stamped with — a {!Watchdog} judging this
    heartbeat must read the same one. *)

val beat : t -> slot:int -> unit
(** Record that [slot] is alive now. Bumps the [supervise.heartbeats]
    counter. *)

val last_ns : t -> slot:int -> int option
(** Monotonic timestamp of [slot]'s last beat, or [None] if it never
    beat. *)

val age_ns : t -> slot:int -> int option
(** Nanoseconds since [slot]'s last beat ([None] if it never beat).
    Never negative. *)
