(** Sampling helpers over a SplitMix64 generator.

    This is the generator handed around inside the simulator: everything an
    injector, scheduler or workload generator needs, with explicit state and
    cheap {!split} for independent sub-streams. *)

type t

val make : seed:int64 -> t
(** [make ~seed] creates a generator. Equal seeds give equal behaviour. *)

val split : t -> t
(** [split g] is a statistically independent sub-generator; useful to give
    each process or object its own stream while keeping one root seed. *)

val copy : t -> t
(** [copy g] continues independently from [g]'s current state. *)

val next_seed : t -> int64
(** [next_seed g] draws a fresh 64-bit seed, for deriving per-run child
    generators identified by their seed alone. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)

val int_in : t -> lo:int -> hi:int -> int
(** [int_in g ~lo ~hi] is uniform in [\[lo, hi\]] inclusive.
    @raise Invalid_argument if [hi < lo]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> bool
(** Uniform boolean. *)

val bernoulli : t -> p:float -> bool
(** [bernoulli g ~p] is [true] with probability [p] (clamped to [\[0,1\]]). *)

val pick : t -> 'a array -> 'a
(** [pick g a] is a uniform element of [a].
    @raise Invalid_argument on an empty array. *)

val pick_list : t -> 'a list -> 'a
(** [pick_list g l] is a uniform element of [l].
    @raise Invalid_argument on an empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val shuffled_list : t -> 'a list -> 'a list
(** [shuffled_list g l] is a fresh uniformly shuffled copy of [l]. *)

val sample_without_replacement : t -> k:int -> n:int -> int list
(** [sample_without_replacement g ~k ~n] is a uniformly chosen size-[k]
    subset of [\[0, n)], in increasing order.
    @raise Invalid_argument if [k < 0 || k > n]. *)

val weighted_index : t -> float array -> int
(** [weighted_index g w] samples index [i] with probability proportional to
    [w.(i)]. @raise Invalid_argument if weights are empty, negative, or sum
    to zero. *)

val seed_of_string : string -> int64
(** Deterministic 64-bit seed derived from a string label (FNV-1a), so
    experiments can be named rather than numbered. *)

(** {2 Keyed streams}

    A keyed stream's seed is {!seed_of_string} of its label, which starts
    with a decimal seed and a constant text and ends with one or two
    ints. A {!label} hashes that prefix once; each stream then continues
    the hash over its ints' decimal digits, exactly as [%d] prints them,
    negative numbers and [min_int] included. No label string is built. *)

type label
(** The hash state after a label's constant prefix. *)

val label : int64 -> string -> label
(** [label seed s] has hashed the label prefix [Printf.sprintf "%Ld%s" seed s]. *)

val label_seed : label -> int64
(** The seed of the prefix alone: [seed_of_string (Printf.sprintf "%Ld%s" seed s)]. *)

val label_seed_int : label -> int -> int64
(** [label_seed_int (label seed s) n] is
    [seed_of_string (Printf.sprintf "%Ld%s%d" seed s n)]. *)

val label_seed_ints : label -> int -> int -> int64
(** [label_seed_ints (label seed s) a b] is
    [seed_of_string (Printf.sprintf "%Ld%s%d/%d" seed s a b)]. *)
