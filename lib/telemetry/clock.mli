(** Monotonic time.

    [clock_gettime(CLOCK_MONOTONIC)] behind a [@@noalloc] external:
    immune to wall-clock steps (NTP, suspend) and allocation-free, so
    spans and rate meters can stamp events from the hottest loops. *)

val now_ns : unit -> int
(** Nanoseconds since an arbitrary (per-boot) epoch. Monotonic,
    non-decreasing across domains. *)

val ns_to_s : int -> float
(** Convenience: a nanosecond interval as seconds. *)
