(** Execution traces: the full observable record of a run.

    Every scheduler step appends one event. Traces serve three purposes:
    human-readable rendering of executions (including the adversarial
    witnesses from the impossibility experiments), programmatic inspection
    by the checkers, and independent auditing — {!audit} re-derives each
    step's fault classification from its state transition via the Hoare
    layer and cross-checks it against the engine's bookkeeping. *)

open Ffault_objects

type event =
  | Op_step of {
      step : int;
      proc : int;
      obj : Obj_id.t;
      op : Op.t;
      pre_state : Value.t;
      post_state : Value.t;
      response : Value.t;
      injected : Ffault_fault.Fault_kind.t option;
          (** what the engine says it did at this step *)
    }
  | Hang of { step : int; proc : int; obj : Obj_id.t; op : Op.t }
      (** a nonresponsive fault consumed the invocation *)
  | Corruption of { step : int; obj : Obj_id.t; before : Value.t; after : Value.t }
      (** a data fault (comparison model) fired between steps *)
  | Decided of { step : int; proc : int; value : Value.t }
  | Step_limit_hit of { step : int; proc : int }
  | Crashed of { step : int; proc : int; error : string }
      (** the process body raised — a programming error, not a model fault *)
  | Proc_crash of {
      step : int;
      proc : int;
      obj : Obj_id.t;
      op : Op.t;
      pre_state : Value.t;
      post_state : Value.t;
      effect : Ffault_recover.Crash_plan.crash_effect;
    }
      (** a crash-restart fault consumed the in-flight invocation: the
          operation vanished or linearized (see [post_state]), its
          response was lost, and the process's private state was wiped *)
  | Nvm_loss of { step : int; obj : Obj_id.t; before : Value.t; after : Value.t }
      (** shared state lost to the crash: a volatile object reverting to
          its initial value, or the lossy mode dropping the crashing
          process's last unpersisted write *)
  | Restart of { step : int; proc : int }
      (** the crashed process re-enters at its recovery section *)

type t = event list
(** In execution order. *)

val pp_event : world:World.t -> Format.formatter -> event -> unit
val pp : world:World.t -> Format.formatter -> t -> unit

val injected_faults : t -> (Obj_id.t * Ffault_fault.Fault_kind.t) list
(** Primitive fault injections in order (from [Op_step.injected] and
    [Hang]); crash-restarts are a process fault, recorded as
    [Proc_crash] events, and not listed here. *)

type audit_error = { at_step : int; reason : string }

val audit : world:World.t -> t -> audit_error list
(** Check every [Op_step] against Definition 1, independently of the
    engine's execution path: an unlabeled step must satisfy Φ (the
    sequential specification); a step labeled with fault kind [k] must
    {e violate} Φ and satisfy the Φ′ that [k] denotes for its operation
    ({!Ffault_fault.Fault_kind.phi'_for}). Every [Proc_crash] is checked
    against the recoverable-linearizability step contract
    ({!Ffault_hoare.Recover_spec}): its state transition must match its
    vanish/linearize label. An empty list means the engine's bookkeeping
    and the trace evidence agree exactly. *)
