(** Plain-text table rendering for experiment reports.

    Produces aligned, pipe-separated tables (also valid Markdown) from a
    header row and string cells. The experiment driver uses this for every
    table in EXPERIMENTS.md. *)

type t

val create : columns:string list -> t
(** @raise Invalid_argument on an empty column list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val pp : Format.formatter -> t -> unit
(** Render with a header separator, columns padded to their widest cell. *)

val to_string : t -> string

(** Cell formatting helpers. *)

val cell_int : int -> string
val cell_bool : bool -> string
(** "yes" / "no". *)

val cell_float : ?decimals:int -> float -> string
val cell_opt : ('a -> string) -> 'a option -> string
(** "-" for [None]. *)
