(** The memory split under crash-restart faults.

    A crash wipes the crashing process's {e private} state — its
    continuation, locals, and program counter — unconditionally: the
    engine unwinds the old incarnation (its stack is freed, and nothing
    it does while unwinding is recorded) before the recovery section
    starts. What happens to the {e shared} [Ffault_objects] state is the
    persistence mode:

    - {!Persist_all}: every shared object is NVM-persistent; crashes
      cannot lose committed shared writes (Golab's full-persistence
      model).
    - {!Persist_lossy}: shared objects persist, but the crashing
      process's most recent completed write may be rolled back if no one
      has overwritten it — the "lose the last unpersisted write" knob
      that models a missing flush before the crash point.
    - {!Persist_only ids}: only the listed objects are NVM-backed; every
      other object reverts to its initial value on any crash. *)

open Ffault_objects

type mode =
  | Persist_all
  | Persist_lossy
  | Persist_only of Obj_id.t list

val survives : mode -> Obj_id.t -> bool
(** Whether this object's state survives a crash at all (lossy rollback of
    the last write is accounted separately — see {!lossy}). *)

val lossy : mode -> bool
(** True iff the mode may drop the crashing process's last completed
    write. *)

val to_string : mode -> string
(** ["all"], ["lossy"], or ["only:<id>,<id>,..."] — round-trips through
    {!of_string}. *)

val of_string : string -> (mode, string) result
val equal : mode -> mode -> bool
val pp : Format.formatter -> mode -> unit
