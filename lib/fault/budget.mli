(** (f, t) fault-budget accounting (paper §3.2, Definition 3).

    [f] bounds the number of {e faulty objects} in the execution — an
    object becomes faulty the first time one of its operations commits an
    observable fault. [t] bounds the number of faults {e per faulty
    object}; [None] means unbounded (the paper's t = ∞).

    Optionally a victim set restricts which objects are even allowed to
    fault (used to stage specific adversarial scenarios: "objects O₁ and
    O₃ are the bad ones"). Budgets are mutable per-execution records; use
    {!copy} for exploration snapshots.

    Charges are stored in two dense int arrays, one indexed by object id
    and one by process id, each grown when a charge first lands past its
    end, plus a count of faulty objects: {!can_fault}, which the engine
    asks on every step, is a few array reads and no hashing. *)

open Ffault_objects

type t

val create :
  ?victims:Obj_id.t list ->
  ?max_crashes_per_proc:int ->
  max_faulty_objects:int ->
  max_faults_per_object:int option ->
  unit ->
  t
(** [max_crashes_per_proc] (default 0) bounds the crash-restart dimension:
    how many times each process may crash during one execution. It is
    orthogonal to the (f, t) object budget — a crash is a {e process}
    fault, not an object fault, so it never consumes [f] or [t].
    @raise Invalid_argument if [max_faulty_objects < 0], a bounded
    [max_faults_per_object] is [< 1], [max_crashes_per_proc < 0], or the
    victim list exceeds [max_faulty_objects]. *)

val unlimited : unit -> t
(** No restriction: every object may fault arbitrarily often. *)

val none : unit -> t
(** f = 0: the fault-free world. *)

val copy : t -> t
(** Deep copy of the mutable charge state — both the per-object fault
    array and the per-process crash array are copied, never shared.
    Exploration snapshots rely on this: replaying a crash after restoring
    a snapshot must charge the snapshot's own array, never double-charge a
    shared one. *)

val f : t -> int
val t_bound : t -> int option

val crash_bound : t -> int
(** The per-process crash cap ([0] for crash-free budgets). *)

val can_fault : t -> Obj_id.t -> bool
(** Whether charging one more observable fault to this object is allowed:
    the object is in the victim set (if any), and either it is already
    faulty with remaining per-object budget, or fewer than [f] objects are
    faulty so far. *)

val charge : t -> Obj_id.t -> unit
(** Record one observable fault.
    @raise Invalid_argument if [can_fault] is false. *)

val faulty_objects : t -> Obj_id.t list
(** Objects charged at least once, ascending. *)

val faults_on : t -> Obj_id.t -> int

val total_faults : t -> int

val can_crash : t -> proc:int -> bool
(** Whether process [proc] may crash once more under the per-process cap. *)

val charge_crash : t -> proc:int -> unit
(** Record one crash-restart of [proc].
    @raise Invalid_argument if [can_crash] is false or [proc < 0]. *)

val crashes_on : t -> int -> int
(** Crashes charged to a process so far. *)

val total_crashes : t -> int

val pp : Format.formatter -> t -> unit
