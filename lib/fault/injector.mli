(** Fault-injection strategies: the adversary that decides, at each
    operation invocation, whether a functional fault fires.

    The engine consults the injector, then independently enforces the
    (f, t) budget and discards "faults" whose outcome coincides with the
    correct one (such steps satisfy Φ and are no faults per Definition 1).
    Strategies therefore never need to track budgets themselves.

    All strategies are deterministic given their inputs (including the
    seeded generator captured at construction), so runs replay exactly.

    Some strategies ({!probabilistic}, {!first_on_each_object}) carry
    internal state that advances during a run: construct a fresh injector
    per execution (the verification harnesses take injector factories for
    this reason). *)

open Ffault_objects

type ctx = {
  obj : Obj_id.t;
  op : Op.t;
  state : Value.t;  (** object state on entry to the invocation *)
  proc : int;  (** invoking process *)
  step : int;  (** global scheduler step counter *)
  op_index : int;  (** 0-based global index of this invocation *)
  budget : Budget.t;  (** current accounting, read-only by convention *)
}

type decision =
  | No_fault
  | Fault of { kind : Fault_kind.t; payload : Value.t option }

type t = { name : string; decide : ctx -> decision }

val never : t
(** The fault-free world. *)

val always : ?payload:(ctx -> Value.t) -> Fault_kind.t -> t
(** Fault on every invocation the budget allows (worst-case adversary for
    the given kind). *)

val probabilistic : seed:int64 -> p:float -> ?payload:(ctx -> Value.t) -> Fault_kind.t -> t
(** Fault each invocation independently with probability [p]. *)

val by_process : procs:int list -> ?payload:(ctx -> Value.t) -> Fault_kind.t -> t
(** The reduced model of Theorem 18: every CAS executed by a process in
    [procs] is faulty; all other processes' operations are correct. *)

val on_invocations : (int * decision) list -> t
(** Scripted adversary: [on_invocations plan] faults exactly at the listed
    global invocation indices (see [ctx.op_index]). *)

val on_object_invocations :
  ?kind:Fault_kind.t -> (int * int list) list -> t
(** [on_object_invocations script] faults object [o]'s k-th invocation
    (0-based, counted per object) whenever [(o, ks)] is in the script and
    [k ∈ ks] — the simulator mirror of the runtime's per-object fault
    plans ([Faulty_cas.plan_first_n] etc.), used by the cross-substrate
    conformance tests. Default kind: overriding. Stateful: construct a
    fresh injector per run. *)

val first_on_each_object : ?payload:(ctx -> Value.t) -> Fault_kind.t -> t
(** Fault the first write-capable invocation on each object (one fault per
    object — the t = 1 shape used by the Theorem 19 covering argument). *)

val mixed :
  seed:int64 -> ?payload:(ctx -> Value.t) -> (Fault_kind.t * float) list -> t
(** [mixed ~seed weighted] draws, independently per invocation, either no
    fault (with the residual probability) or one of the listed kinds with
    its probability. Definition 3 explicitly allows a mix of functional
    faults; experiment E11 uses this adversary.
    @raise Invalid_argument if any probability is negative or the sum
    exceeds 1. *)

val custom : name:string -> (ctx -> decision) -> t

val arbitrary_payload_default : ctx -> Value.t
(** A payload for [Arbitrary] faults guaranteed to differ from the correct
    post-state: an [Int] derived from the invocation index, tagged far
    outside protocol value ranges. *)

val invisible_payload_default : ctx -> Value.t
(** A payload for [Invisible] faults guaranteed to differ from the true old
    value. *)
