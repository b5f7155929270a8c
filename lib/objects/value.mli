(** Universal value domain for shared objects.

    Every shared object in the simulator holds a [Value.t] and every
    operation response is a [Value.t]. A single closed domain (rather than
    polymorphic objects) keeps the object registry, trace rendering and
    structural CAS comparison straightforward.

    [Bottom] is the distinguished initial value ⊥ used throughout the paper
    (it differs from every process input by construction). [Staged] is the
    ⟨value, stage⟩ pair written by the bounded-faults protocol (paper
    Fig. 3). *)

type t =
  | Bottom  (** the paper's ⊥; initial content of consensus CAS objects *)
  | Bool of bool
  | Int of int
  | Str of string
  | Pair of t * t
  | Staged of { value : t; stage : int }
      (** ⟨value, stage⟩ as written by the Fig. 3 protocol *)

val equal : t -> t -> bool
(** Structural equality; this is the comparison the CAS primitive runs. *)

val compare : t -> t -> int
(** Total structural order (for use in sets/maps and canonical sorting). *)

val hash : t -> int
(** Structural hash consistent with {!equal}. *)

val to_string : t -> string
(** Human-readable rendering: [⊥], [42], ["s"] (quoted as OCaml quotes a
    string literal), [⟨v,3⟩], [(a, b)]. Built without [Format] or
    [Printf]. *)

val add : Buffer.t -> t -> unit
(** Appends {!to_string}. *)

val add_int : Buffer.t -> int -> unit
(** Appends the decimal digits of an int, as {!to_string} writes an
    [Int]: for renderers that write ints beside values. *)

val pp : Format.formatter -> t -> unit
(** Prints {!to_string}. *)

val is_bottom : t -> bool

val stage : t -> int option
(** [stage v] is [Some n] iff [v] is [Staged {stage = n; _}]. *)

val staged_value : t -> t option
(** [staged_value v] is [Some x] iff [v] is [Staged {value = x; _}]. *)

val int_exn : t -> int
(** Project an [Int]; @raise Invalid_argument otherwise. *)
