(** Executable Hoare triples Ψ{O}Φ over shared-object operations.

    The paper (Def. 1) characterizes a functional fault of operation [O] as
    a step where the preconditions Ψ held on entry but the postconditions Φ
    do not hold on return — while some deviating postconditions Φ′ do.
    This module makes Ψ and Φ executable so that traces can be audited:
    every response step in a simulator trace is checked against the
    object's correct triple and against the registered deviating
    postconditions. *)

open Ffault_objects

type step = {
  kind : Kind.t;
  pre_state : Value.t;  (** object state s₀, before the invocation *)
  op : Op.t;
  post_state : Value.t;  (** object state s₁, after the response *)
  response : Value.t;
}
(** One operation execution, as observed in a trace. *)

type pre = Kind.t -> state:Value.t -> Op.t -> bool
(** Precondition Ψ: judged on the pre-state and the invocation. *)

type post = step -> bool
(** Postcondition Φ (or Φ′): judged on the whole step. *)

type t = { name : string; pre : pre; post : post }

val holds : t -> step -> bool
(** [holds tr step] is [tr.post step], provided the precondition holds; a
    step whose precondition fails is vacuously accepted (total-correctness
    triples say nothing about invalid invocations). *)

val precondition_met : t -> step -> bool

val correct : t
(** The triple whose postcondition is exactly the sequential specification:
    the post-state and response must equal {!Semantics.apply} of the
    pre-state. Its precondition is [Kind.allows] plus state
    well-typedness. *)

val respects_sequential_spec : step -> bool
(** [holds correct step], the Φ of the paper for every kind. *)
