(** The exact distribution of a stream of integer samples.

    The campaign reports and the experiments aggregate per-trial step
    counts with it. It keeps one count per distinct sample, plus
    the integer sum and count, so every statistic is exact and none
    depends on the order of the samples. Memory grows with the distinct
    values (a few dozen for a cell's step counts), not with the
    stream. *)

type t
(** A mutable accumulator. *)

val create : unit -> t
val add : t -> int -> unit

val count : t -> int

val mean : t -> float
(** The sum divided by the count, rounded once; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile s p] for p in [\[0, 100\]]: linear interpolation
    between the sorted samples around rank [p / 100 × (count - 1)].
    @raise Invalid_argument if empty or p out of range. *)

val max_value : t -> float
(** @raise Invalid_argument if empty. *)
