(** The experiment registry: every paper artifact, runnable by id. *)

type entry = {
  id : string;
  title : string;
  run : quick:bool -> seed:int64 -> Report.t;
}

val all : entry list
(** E1 … E12, in order: E1–E9 reproduce the paper's figures and theorems,
    E10–E12 are the extension studies from DESIGN.md (severity /
    degradation, mixed faults, quantitative curves). *)

val find : string -> entry option
(** Case-insensitive lookup by id. *)
