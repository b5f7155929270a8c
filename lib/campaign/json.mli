(** A minimal self-contained JSON encoder/parser.

    The campaign subsystem persists its artifacts (manifest, journal,
    reports) as JSON, and the container carries no JSON library — this is
    the small closed dialect we need: UTF-8 strings pass through
    untouched, integers stay exact (no float round-trip), and parsing is
    total (returns [Error] rather than raising).

    {b The encoding is byte-stable}: journals and wire frames written by
    any build are the same bytes, which the differential and golden
    tests in [test/test_json.ml] pin.
    - [Int] prints as decimal digits, with a leading minus sign when
      negative.
    - A non-integral [Float], or one of magnitude at least [1e15], prints
      as C's [%.17g] (a NaN or an infinity prints as C prints it, such
      as [nan] or [-inf], and does not parse back); an integral [Float]
      below [1e15] prints as [%.1f] (["3.0"], ["-0.0"]).
    - In strings and keys only the double quote, the backslash and
      control bytes (below [0x20]) are escaped: as a backslash before the
      quote or backslash, as [\n], [\r] and [\t], and otherwise as
      [\u00XX] in lowercase hex. Every other byte, UTF-8 or not, is
      copied as is.
    - No whitespace is emitted.

    {b Decoder limits}: arrays and objects nest at most 64 deep; past it
    {!of_string} returns an [Error] naming the limit, so a hostile
    frame cannot make the decoder recurse without bound. A number with
    no [.], [e] or [E] that fits an OCaml [int] parses as [Int]; any
    other number parses as [Float]. {!get_int} accepts a [Float] only
    when it is integral and inside the int range, from [min_int]
    (-2{^62} on 64-bit hosts) up to but excluding [-min_int]: an integer
    too large for [int] is malformed, never silently wrapped. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (never emits raw newlines, so one value
    per line is a valid JSONL record). *)

(** The writers {!to_string} prints its leaves with, for a printer that
    writes a value of known shape straight into a buffer (the journal's
    record printer) in the same bytes as {!to_string} of its tree. *)

val add_string : Buffer.t -> string -> unit
(** A [Str] value or an object key: quoted and escaped. *)

val add_int : Buffer.t -> int -> unit
(** An [Int]. *)

val add_float : Buffer.t -> float -> unit
(** A [Float]. *)

val of_string : string -> (t, string) result
(** Parse one complete JSON value; trailing non-whitespace is an error. *)

(** {2 Reading without a tree}

    The cursor {!of_string} is built on: [of_string s] is
    [parse s (value ~depth:0)]. A reader of a value whose shape it knows
    (the journal's record reader) walks the text with it and keeps only
    what it needs, under the same syntax, the same nesting limit and the
    same error texts as {!of_string}. *)

type cursor

val parse : string -> (cursor -> 'a) -> ('a, string) result
(** [parse s read] runs [read] on a cursor at the start of [s], then
    requires that only whitespace remain. A syntax error met by [read],
    or trailing text, is an [Error] with {!of_string}'s message. *)

val value : depth:int -> cursor -> t
(** The next value, inside [depth] enclosing containers. *)

val members : depth:int -> cursor -> string array -> t option array option
(** Skips whitespace. If an object starts there, reads it through its
    closing brace, as a container inside [depth] others, and answers the
    first value of each key of the table ([None] for a key it lacks), as
    {!member} finds them in the object's tree; the values of other keys
    are parsed and dropped. Otherwise leaves the cursor for {!value} and
    answers [None]. The table's entries must be distinct and hold no
    quote or backslash. Keys without escapes are compared in place, with
    no string built, and keys met in the table's order match at the
    first comparison, in one pass over their bytes. *)

(** Accessors: shape-checked projections, [None] on mismatch. *)

val member : string -> t -> t option
(** The first field of that name in an [Obj]. *)

val get_int : t -> int option
val get_float : t -> float option
val get_str : t -> string option
val get_bool : t -> bool option
val get_list : t -> t list option
