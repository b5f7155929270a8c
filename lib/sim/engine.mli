(** The execution engine: interleaves process steps over shared objects,
    injecting functional faults under (f, t) budget control.

    Model (paper §2): processes are coroutines whose shared-object
    operations are atomic steps; the scheduler adversarially picks which
    enabled process takes the next step; local computation between
    operations is free. A step executes one pending operation — correctly,
    or with a functional fault chosen by the adversary and permitted by
    the budget — and runs the process up to its next operation.

    Faults whose outcome coincides with the correct outcome are {e not}
    faults (they satisfy Φ, Definition 1): the engine silently executes
    them as correct steps and does not charge the budget.

    Two entry points: {!run} (strategy mode: a {!Scheduler.t} plus an
    {!Ffault_fault.Injector.t} drive the nondeterminism) and
    {!run_with_driver} (the model checker supplies every choice and sees
    every branch point).

    {b Abandoned processes are unwound.} The engine gives up on a
    process at a crash-restart (the old incarnation), at a nonresponsive
    hang, at the per-process step limit, and, when the run ends or an
    exception leaves it, on every process still parked at an operation.
    It raises an exception private to the engine at the process's
    pending operation, so the process's stack unwinds ([Fun.protect]
    finalizers run) and its memory is freed; a process left suspended
    would keep its stack until the program exits. Nothing an unwinding
    process does is recorded: a value it returns or an exception it
    raises sets no outcome, and an operation it invokes is dropped, never
    executed or resumed. A body that catches every exception therefore
    changes nothing, and cannot keep the run going. *)

open Ffault_objects
module Fault = Ffault_fault

type outcome_choice =
  | Correct_outcome
  | Inject of Fault.Fault_kind.t * Value.t option
      (** kind and payload (for invisible/arbitrary faults) *)
  | Crash_point of Ffault_recover.Crash_plan.crash_effect
      (** the invoking process crash-restarts at this step instead of
          completing the operation: the op vanishes or linearizes (its
          response lost either way), private state is wiped, and the
          process re-enters at its recovery section. Only offered when the
          run has a recovery entry ({!run_with_driver}'s [recovery]) and
          the crash budget has headroom; [Linearize] is only offered when
          the op has a state effect and the persistence mode is not
          lossy. *)

val pp_outcome_choice : Format.formatter -> outcome_choice -> unit
val equal_outcome_choice : outcome_choice -> outcome_choice -> bool

type driver = {
  choose_proc : enabled:int list -> step:int -> int;
      (** pick who steps next; must return a member of [enabled] *)
  choose_outcome : Fault.Injector.ctx -> options:outcome_choice list -> outcome_choice;
      (** pick this step's outcome. [options] is the engine-validated menu
          (head is always [Correct_outcome]; the rest are observable,
          budget-permitted faults). Returning a choice outside the menu
          falls back to [Correct_outcome]. *)
  after_step : Fault.Data_fault.ctx -> Fault.Data_fault.event list;
      (** data-fault (comparison model) corruptions to apply now; events
          that exceed the budget or do not change the state are dropped *)
}

type proc_outcome =
  | Decided of Value.t  (** the body returned this value *)
  | Hung  (** swallowed by a nonresponsive fault *)
  | Exhausted of { steps : int; budget : int }
      (** ran [steps] ≥ [budget] = [max_steps_per_proc] operation steps
          without deciding — the structured per-process step-budget
          outcome, turning silent non-termination (e.g. unbounded silent
          faults, §3.4) into a measured data point rather than a hang *)
  | Step_limited
      (** still runnable when [max_total_steps] ran out — the {e run}'s
          budget, not this process's; see [total_limit_hit] *)
  | Cancelled  (** still runnable when the [interrupt] hook tripped *)
  | Crashed of string  (** the body raised *)

val proc_outcome_to_string : proc_outcome -> string
(** ["decided 1"], ["hung"], ["exhausted (9 steps, budget 8)"],
    ["step-limited"], ["cancelled"], ["crashed: <message>"]. Built
    without [Format]. *)

val pp_proc_outcome : Format.formatter -> proc_outcome -> unit
(** Prints {!proc_outcome_to_string}. *)

type result = {
  outcomes : proc_outcome array;
  final_states : Value.t array;  (** object contents at the end *)
  steps_taken : int array;  (** operation steps executed per process *)
  total_steps : int;
  trace : Trace.t;  (** [[]] when {!run_with_driver} ran with [~trace:false] *)
  budget : Fault.Budget.t;  (** final fault accounting *)
  total_limit_hit : bool;  (** [max_total_steps] exhausted with work left *)
  interrupted : bool;  (** the [interrupt] hook ended the run early *)
}

val decided_values : result -> (int * Value.t) list
(** [(proc, value)] for every process that decided. *)

val all_decided : result -> bool

type config = {
  world : World.t;
  budget : Fault.Budget.t;  (** consumed by the run; pass a fresh one *)
  allowed_faults : Fault.Fault_kind.t list;
      (** kinds the adversary may use at all (menu generation) *)
  payload_palette : Value.t list;
      (** candidate payloads enumerated for invisible/arbitrary faults in
          the options menu (exploration mode); strategy-mode injectors may
          propose payloads outside the palette *)
  max_steps_per_proc : int;
  max_total_steps : int;
  interrupt : unit -> bool;
      (** cooperative cancellation hook, polled every 256 steps from the
          main loop; once it returns [true] the run stops, marks runnable
          processes [Cancelled] and sets [interrupted]. Must be cheap and
          thread-safe (typically [Cancel.cancelled] on a per-trial
          deadline token). *)
  persistence : Ffault_recover.Persistence.mode;
      (** what shared state survives a crash-restart (doc/RECOVERY.md);
          irrelevant when no crashes can occur *)
}

val config :
  ?allowed_faults:Fault.Fault_kind.t list ->
  ?payload_palette:Value.t list ->
  ?max_steps_per_proc:int ->
  ?max_total_steps:int ->
  ?interrupt:(unit -> bool) ->
  ?persistence:Ffault_recover.Persistence.mode ->
  world:World.t ->
  budget:Fault.Budget.t ->
  unit ->
  config
(** Defaults: [allowed_faults] = [[Overriding]], empty palette,
    [max_steps_per_proc] = 10_000, [max_total_steps] = 1_000_000,
    [interrupt] never fires, [persistence] = [Persist_all]. *)

val run_with_driver :
  ?recovery:(int -> unit -> Value.t) ->
  ?trace:bool ->
  config ->
  driver ->
  bodies:(unit -> Value.t) array ->
  result
(** [bodies.(i)] is process i's program; it runs to its first operation at
    engine start.

    [trace] (default [true]) asks for the execution trace. With [false]
    the result's [trace] is [[]] and no event is built, and nothing else
    changes: outcomes, final states, step counts, budget charges and the
    sequence of driver calls are those of the traced run. A campaign
    trial, which reads outcomes only, runs untraced.

    [recovery i] is process i's {e recovery section}: the program a
    crash-restarted process re-enters (its old incarnation is unwound
    first, as above). Supplying it arms crash-restart faults — the driver's
    outcome menus gain [Crash_point] entries wherever the budget's
    per-process crash cap ([Fault.Budget.crash_bound]) has headroom. Without
    it no crash is ever offered and behaviour is exactly as before.
    [steps_taken] accumulates across a process's incarnations, so size
    [max_steps_per_proc] for the whole lifetime, restarts included.

    @raise Invalid_argument if the number of bodies differs from [world]'s
    process count. *)

val run :
  config ->
  scheduler:Scheduler.t ->
  injector:Fault.Injector.t ->
  ?data_faults:Fault.Data_fault.t ->
  bodies:(unit -> Value.t) array ->
  unit ->
  result
(** Strategy mode: wrap the scheduler and injector into a driver. The
    injector's decisions are validated against the budget and
    observability; disallowed decisions execute correctly. *)
