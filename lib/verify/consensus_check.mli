(** Consensus correctness oracles (paper §2): validity, consistency and
    wait-freedom, judged on engine results.

    A {!setup} bundles a protocol instance with its fault setting; {!run}
    executes it once under a given scheduler and injector and reports
    violations. A setup builds its protocol's world once, when it is
    made, and every run shares it; a run allocates only its budget,
    bodies and engine state. The wait-freedom judgement is operational:
    a process that exhausts the protocol's [max_steps_hint] (or the
    engine's total budget) without deciding counts as a wait-freedom
    violation, and a process swallowed by a nonresponsive fault counts
    likewise. *)

open Ffault_objects
open Ffault_sim
module Fault = Ffault_fault
module Consensus = Ffault_consensus

type violation =
  | Validity of { proc : int; decided : Value.t }
      (** decided a value that is no process's input *)
  | Consistency of { proc_a : int; val_a : Value.t; proc_b : int; val_b : Value.t }
      (** two processes decided differently *)
  | Wait_freedom of { proc : int; outcome : Engine.proc_outcome }
      (** a process failed to decide (step-limited, exhausted, hung, or
          crashed). {!Engine.Cancelled} is deliberately {e not} a
          violation: the harness truncated the run, so no verdict exists —
          check [result.interrupted] and report such runs as timed out,
          never as passing. *)

val violation_to_string : violation -> string
(** The rendering a journal record carries, e.g. ["consistency: p0
    decided 1 but p1 decided 2"]. Built without [Format]: a campaign
    renders every violation it journals. *)

val pp_violation : Format.formatter -> violation -> unit
(** Prints {!violation_to_string}. *)

type report = { violations : violation list; result : Engine.result }
(** A report names no instance: a run is the trial path, and formatting
    the instance there would cost a [Fmt.str] per trial. Callers that
    print a heading ask {!setup_name} once. *)

val ok : report -> bool

type recover_opts = {
  crashes_per_proc : int;  (** the budget's per-process crash cap *)
  persistence : Ffault_recover.Persistence.mode;
      (** what shared state survives each crash *)
}
(** Arms crash-restart faults for a setup: every run gets a recovery
    entry (the protocol's recovery section, or its body re-run from the
    top when it declares none) and a crash dimension in its budget. *)

type setup = private {
  protocol : Consensus.Protocol.t;
  params : Consensus.Protocol.params;
  inputs : Value.t array;
  allowed_faults : Fault.Fault_kind.t list;
  payload_palette : Value.t list;
  victims : Obj_id.t list option;
      (** restrict which objects may fault (defaults to any) *)
  step_slack : int;
      (** multiplier headroom over [max_steps_hint] before declaring a
          wait-freedom failure *)
  recover : recover_opts option;
      (** crash-restart faults; [None] keeps runs crash-free *)
  world : World.t;  (** the protocol's world at [params], built once by {!setup} *)
}
(** Private: only {!setup} makes one, so [world] always matches
    [protocol] and [params]. *)

val setup :
  ?inputs:Value.t array ->
  ?allowed_faults:Fault.Fault_kind.t list ->
  ?payload_palette:Value.t list ->
  ?victims:Obj_id.t list ->
  ?step_slack:int ->
  ?recover:recover_opts ->
  Consensus.Protocol.t ->
  Consensus.Protocol.params ->
  setup
(** Defaults: [Protocol.default_inputs], overriding faults only, empty
    palette, no victim restriction, slack 2, no crashes.
    @raise Invalid_argument on a negative [crashes_per_proc], or when the
    protocol cannot be built at [params] (its objects or step bound
    reject them, e.g. Fig. 3 with f = 0 or an unbounded t). *)

val world : setup -> World.t
(** The setup's [world]; no new world is built. *)

val setup_name : setup -> string
(** The protocol name and its parameters, e.g.
    ["fig3-bounded-faults (f=1, t=1, n=2)"], as a heading for output. *)

val engine_config : ?interrupt:(unit -> bool) -> setup -> Engine.config
(** A fresh configuration (fresh budget) for one run. [interrupt] is the
    engine's cooperative-cancellation hook (see {!Engine.config}). With a
    [recover] setting, the step budgets scale by [1 + crashes_per_proc] —
    a restarted incarnation must not trip a spurious wait-freedom
    Exhausted — and the budget carries the crash cap. *)

val check_result : setup -> Engine.result -> violation list
(** Judge a finished run. *)

val run :
  ?interrupt:(unit -> bool) ->
  setup ->
  scheduler:Scheduler.t ->
  injector:Fault.Injector.t ->
  ?data_faults:Fault.Data_fault.t ->
  unit ->
  report

val run_with_driver : ?interrupt:(unit -> bool) -> setup -> Engine.driver -> report
