(** Cooperative cancellation tokens: a deadline plus an external cancel.

    A token is a single word of shared state polled from spin paths
    ({!Faulty_cas}) and the campaign pool's engine interrupt hook.
    Cancellation is level-triggered and sticky: once a token
    trips — explicitly via {!cancel}, or implicitly when its deadline
    passes — every later {!cancelled}/{!check} observes it, with the
    first reason recorded.

    Deadlines are measured on the monotonic clock
    ({!Ffault_telemetry.Clock}), so wall-clock steps cannot fire or
    starve them. Tests inject a fake clock through [~now]. *)

type t

exception Cancelled of string
(** Raised by {!check}; carries the cancellation reason. *)

val never : t
(** The shared token that never trips. Calling {!cancel} on it is a
    programming error and raises [Invalid_argument] (it is shared by
    every caller that opted out of cancellation). *)

val create : ?deadline_ns:int -> ?now:(unit -> int) -> unit -> t
(** A fresh token. [deadline_ns] is relative to [now ()] at creation;
    omitted means no deadline (the token trips only via {!cancel}).
    [now] defaults to {!Ffault_telemetry.Clock.now_ns} — override with a
    fake clock in tests.
    @raise Invalid_argument if [deadline_ns < 0]. *)

val after : seconds:float -> t
(** [create] with the deadline given in fractional seconds.
    @raise Invalid_argument if [seconds] is negative or not finite. *)

val cancel : t -> reason:string -> unit
(** Trip the token. The first call wins; later calls (and a later
    deadline expiry) keep the original reason. *)

val cancelled : t -> bool
(** Poll: has the token tripped? Checks the deadline, so a token past
    its deadline trips on the first poll that observes it. *)

val check : t -> unit
(** @raise Cancelled (with the recorded reason) if {!cancelled}. *)

val reason : t -> string option
(** The recorded reason, if tripped. *)
