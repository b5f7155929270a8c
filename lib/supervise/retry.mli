(** Bounded retry with seed-perturbed exponential backoff.

    The campaign pool retries a timed-out trial, and a worker its
    failed connect, up to [max_retries] times. Between attempts the
    caller backs off exponentially, with the delay perturbed by a hash
    of (seed, attempt) — deterministic given the seed, yet decorrelated
    across trials, so a pool of workers retrying the same pathological
    cell does not thundering-herd. *)

type policy = {
  max_retries : int;  (** extra attempts after the first failure *)
  base_backoff_ns : int;  (** nominal delay before the first retry *)
  max_backoff_ns : int;  (** exponential growth is capped here *)
}

val default_policy : policy
(** 2 retries, 1ms base, 100ms cap. *)

val policy : ?max_retries:int -> ?base_backoff_ns:int -> ?max_backoff_ns:int -> unit -> policy
(** @raise Invalid_argument on a negative [max_retries] or non-positive
    backoff bounds. *)

val backoff_ns : policy -> seed:int64 -> attempt:int -> int
(** Delay before retry [attempt] (1-based): [base · 2^(attempt-1)],
    perturbed to [0.5×..1.5×] by a hash of (seed, attempt), capped at
    [max_backoff_ns]. Pure. *)
