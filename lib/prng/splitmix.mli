(** SplitMix64 pseudo-random number generator.

    A small, fast, splittable generator (Steele, Lea, Flood 2014): the
    library's one source of reproducible simulation randomness. All state
    is explicit: there is no global generator, so concurrent experiments
    never interfere and every run is replayable from its seed. *)

type t
(** Mutable generator state. *)

val create : int64 -> t
(** [create seed] makes a fresh generator. Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy g] is an independent generator that continues from [g]'s current
    state; advancing one does not affect the other. *)

val next : t -> int64
(** [next g] advances [g] and returns the next 64-bit output. *)

val next_int : t -> bound:int -> int
(** [next_int g ~bound] is a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val next_float : t -> float
(** [next_float g] is a uniform float in [\[0, 1)]. *)

val next_bool : t -> bool
(** [next_bool g] is a uniform boolean. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    (statistically) independent of [g]'s subsequent outputs. *)

val hash : int64 -> int64
(** The stateless SplitMix64 finalizer: a high-quality 64-bit mixer, used
    for per-index deterministic decisions that must be computable from
    several domains without shared generator state. *)

val state : t -> int64
(** [state g] exposes the current internal state, for checkpointing. *)

val of_state : int64 -> t
(** [of_state s] resumes a generator from a state captured by {!state}. *)
