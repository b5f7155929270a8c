(** The clock interface shared by everything that judges time.

    The coordinator's heartbeat slots, lease expiry and the netsim
    scheduler all consume the same [t]: a monotonic nanosecond source.
    Production code uses {!monotonic} (the
    [clock_gettime(CLOCK_MONOTONIC)] external from
    {!Ffault_telemetry.Clock}); unit tests and the deterministic
    network simulator substitute a {!Virtual} clock they advance by
    hand, so expiry and silence decisions become pure functions of the
    event sequence. *)

type t

val monotonic : t
(** The process monotonic clock ({!Ffault_telemetry.Clock.now_ns}). *)

val now_ns : t -> int
val now_s : t -> float
(** {!now_ns} in seconds. *)

(** {2 Virtual time}

    A hand-advanced clock: reads return the last value set. Used by the
    fake-clock unit tests (heartbeat silence, lease expiry) and as the
    time source of the netsim event scheduler, where the scheduler sets
    it to each event's timestamp. *)

module Virtual : sig
  type clock := t
  type t

  val create : ?start_ns:int -> unit -> t
  (** Starts at [start_ns] (default 0). *)

  val clock : t -> clock
  (** The read-only face, for injection. *)

  val now_ns : t -> int

  val advance : t -> ns:int -> unit
  (** Move forward by [ns].
      @raise Invalid_argument on a negative step. *)

  val set : t -> ns:int -> unit
  (** Jump to an absolute time.
      @raise Invalid_argument on a backwards jump. *)
end
