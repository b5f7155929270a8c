(** Cooperative cancellation tokens: a deadline, polled.

    A token is a single word of shared state polled from spin paths
    ({!Faulty_cas}) and the campaign pool's engine interrupt hook.
    Cancellation is level-triggered and sticky: once a token's deadline
    passes, the first {!cancelled}/{!check} that sees it trips the token,
    and every later poll observes it.

    Deadlines are measured on the monotonic clock
    ({!Ffault_telemetry.Clock}), so wall-clock steps cannot fire or
    starve them. Tests inject a fake clock through [~now]. *)

type t

exception Cancelled of string
(** Raised by {!check}; carries the reason, ["deadline exceeded"]. *)

val never : t
(** The shared token that never trips. *)

val create : ?deadline_ns:int -> ?now:(unit -> int) -> unit -> t
(** A fresh token. [deadline_ns] is relative to [now ()] at creation;
    omitted means no deadline (the token never trips). [now] defaults to
    {!Ffault_telemetry.Clock.now_ns} — override with a fake clock in
    tests.
    @raise Invalid_argument if [deadline_ns < 0]. *)

val after : seconds:float -> t
(** [create] with the deadline given in fractional seconds.
    @raise Invalid_argument if [seconds] is negative or not finite. *)

val cancelled : t -> bool
(** Poll: has the token tripped? Checks the deadline, so a token past
    its deadline trips on the first poll that observes it. *)

val check : t -> unit
(** @raise Cancelled if {!cancelled}. *)
