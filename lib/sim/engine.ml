open Ffault_objects
module Fault = Ffault_fault
module Fault_kind = Fault.Fault_kind
module Injector = Fault.Injector
module Budget = Fault.Budget
module Data_fault = Fault.Data_fault
module Faulty_semantics = Fault.Faulty_semantics
module Metrics = Ffault_telemetry.Metrics
module Persistence = Ffault_recover.Persistence
module Crash_plan = Ffault_recover.Crash_plan

(* Engine-level instruments: sharded counters (one atomic add on the
   domain's own slot), cheap enough for the per-step hot path. *)
let m_runs = Metrics.counter "sim.runs"
let m_steps = Metrics.counter "sim.steps"
let m_cas = Metrics.counter "sim.cas_attempts"
let m_corruptions = Metrics.counter "sim.corruptions"
let m_crashes = Metrics.counter "sim.crash_restarts"

let m_fault_of =
  let overriding = Metrics.counter "sim.faults.overriding"
  and silent = Metrics.counter "sim.faults.silent"
  and invisible = Metrics.counter "sim.faults.invisible"
  and arbitrary = Metrics.counter "sim.faults.arbitrary"
  and nonresponsive = Metrics.counter "sim.faults.nonresponsive"
  and relaxation = Metrics.counter "sim.faults.relaxation" in
  function
  | Fault_kind.Overriding -> overriding
  | Fault_kind.Silent -> silent
  | Fault_kind.Invisible -> invisible
  | Fault_kind.Arbitrary -> arbitrary
  | Fault_kind.Nonresponsive -> nonresponsive
  | Fault_kind.Relaxation -> relaxation

type outcome_choice =
  | Correct_outcome
  | Inject of Fault_kind.t * Value.t option
  | Crash_point of Crash_plan.crash_effect

let pp_outcome_choice ppf = function
  | Correct_outcome -> Fmt.string ppf "correct"
  | Inject (k, payload) ->
      Fmt.pf ppf "inject:%a%a" Fault_kind.pp k
        (Fmt.option (fun ppf v -> Fmt.pf ppf "(%a)" Value.pp v))
        payload
  | Crash_point e -> Fmt.pf ppf "crash:%a" Crash_plan.pp_crash_effect e

let equal_outcome_choice a b =
  match a, b with
  | Correct_outcome, Correct_outcome -> true
  | Inject (k1, p1), Inject (k2, p2) ->
      Fault_kind.equal k1 k2 && Option.equal Value.equal p1 p2
  | Crash_point e1, Crash_point e2 -> Crash_plan.equal_crash_effect e1 e2
  | (Correct_outcome | Inject _ | Crash_point _), _ -> false

type driver = {
  choose_proc : enabled:int list -> step:int -> int;
  choose_outcome : Injector.ctx -> options:outcome_choice list -> outcome_choice;
  after_step : Data_fault.ctx -> Data_fault.event list;
}

type proc_outcome =
  | Decided of Value.t
  | Hung
  | Exhausted of { steps : int; budget : int }
  | Step_limited
  | Cancelled
  | Crashed of string

let proc_outcome_to_string = function
  | Decided v -> "decided " ^ Value.to_string v
  | Hung -> "hung"
  | Exhausted { steps; budget } -> Printf.sprintf "exhausted (%d steps, budget %d)" steps budget
  | Step_limited -> "step-limited"
  | Cancelled -> "cancelled"
  | Crashed msg -> "crashed: " ^ msg

let pp_proc_outcome ppf o = Fmt.string ppf (proc_outcome_to_string o)

type result = {
  outcomes : proc_outcome array;
  final_states : Value.t array;
  steps_taken : int array;
  total_steps : int;
  trace : Trace.t;
  budget : Budget.t;
  total_limit_hit : bool;
  interrupted : bool;
}

let decided_values r =
  let acc = ref [] in
  Array.iteri
    (fun i o -> match o with Decided v -> acc := (i, v) :: !acc | _ -> ())
    r.outcomes;
  List.rev !acc

let all_decided r = Array.for_all (function Decided _ -> true | _ -> false) r.outcomes

type config = {
  world : World.t;
  budget : Budget.t;
  allowed_faults : Fault_kind.t list;
  payload_palette : Value.t list;
  max_steps_per_proc : int;
  max_total_steps : int;
  interrupt : unit -> bool;
  persistence : Persistence.mode;
}

let config ?(allowed_faults = [ Fault_kind.Overriding ]) ?(payload_palette = [])
    ?(max_steps_per_proc = 10_000) ?(max_total_steps = 1_000_000)
    ?(interrupt = fun () -> false) ?(persistence = Persistence.Persist_all) ~world ~budget () =
  {
    world;
    budget;
    allowed_faults;
    payload_palette;
    max_steps_per_proc;
    max_total_steps;
    interrupt;
    persistence;
  }

(* Per-process runtime status. *)
type status =
  | Pending of { obj : Obj_id.t; op : Op.t; k : (Value.t, unit) Effect.Deep.continuation }
  | Finished of Value.t
  | Hung_at of { obj : Obj_id.t; op : Op.t }
  | Limited
  | Failed of string

let outcome_differs (a : Semantics.outcome) (b : Semantics.outcome) =
  not (Value.equal a.post_state b.post_state && Value.equal a.response b.response)

let faulty_differs fk ~payload ~kind ~op ~pre ~correct =
  match Faulty_semantics.apply fk ?payload ~kind ~state:pre op with
  | Ok (Faulty_semantics.Outcome o) -> outcome_differs o correct
  | Ok Faulty_semantics.Hangs -> true
  | Error _ -> false

(* The observable fault options of one step, consed onto [tail] in
   [kinds] order, and in palette order within a payload-carrying kind.
   [palette] holds the payloads already wrapped in [Some]. *)
let rec faults_onto tail kinds ~palette ~kind ~op ~pre ~correct =
  match kinds with
  | [] -> tail
  | fk :: rest -> (
      let tail = faults_onto tail rest ~palette ~kind ~op ~pre ~correct in
      match fk with
      | Fault_kind.Overriding | Fault_kind.Silent ->
          if faulty_differs fk ~payload:None ~kind ~op ~pre ~correct then Inject (fk, None) :: tail
          else tail
      | Fault_kind.Nonresponsive -> Inject (fk, None) :: tail
      | Fault_kind.Invisible | Fault_kind.Arbitrary | Fault_kind.Relaxation ->
          payloads_onto tail fk palette ~kind ~op ~pre ~correct)

and payloads_onto tail fk palette ~kind ~op ~pre ~correct =
  match palette with
  | [] -> tail
  | payload :: rest ->
      let tail = payloads_onto tail fk rest ~kind ~op ~pre ~correct in
      if faulty_differs fk ~payload ~kind ~op ~pre ~correct then Inject (fk, payload) :: tail
      else tail

(* Menus are immutable, so the crash tails and the menus without a fault
   option are built once and shared by every step that offers them. *)
let crash_vanish = [ Crash_point Crash_plan.Vanish ]
let crash_both = [ Crash_point Crash_plan.Vanish; Crash_point Crash_plan.Linearize ]
let menu_correct = [ Correct_outcome ]
let menu_vanish = Correct_outcome :: crash_vanish
let menu_both = Correct_outcome :: crash_both

(* Membership tests for the step path, written out so that no partial
   application is allocated per test. *)
let rec mem_choice c = function
  | [] -> false
  | x :: rest -> equal_outcome_choice c x || mem_choice c rest

let rec mem_kind fk = function
  | [] -> false
  | k :: rest -> Fault_kind.equal fk k || mem_kind fk rest

let rec mem_proc p = function [] -> false | q :: rest -> Int.equal p q || mem_proc p rest

let run_with_driver ?recovery cfg driver ~bodies =
  let world = cfg.world in
  let n = World.n_procs world in
  if Array.length bodies <> n then
    invalid_arg "Engine.run_with_driver: bodies count differs from world process count";
  Metrics.incr m_runs;
  let n_objs = World.n_objects world in
  let obj_states = Array.init n_objs (fun i -> World.init_of world (Obj_id.of_int i)) in
  let statuses = Array.make n (Failed "not started") in
  let steps_taken = Array.make n 0 in
  let lossy = Persistence.lossy cfg.persistence in
  let palette = List.map Option.some cfg.payload_palette in
  (* Per-process most recent completed state-changing op (object index,
     pre, post): the write the lossy persistence mode may drop when that
     process crashes. Kept only in that mode, its one reader. *)
  let last_write = Array.make n None in
  let trace_rev = ref [] in
  let step_counter = ref 0 in
  let op_counter = ref 0 in
  (* Step and CAS counts batch into locals and flush to the sharded
     counters once per run — a per-step [Metrics.incr] is cheap but not
     free, and the step loop is the innermost loop of every campaign. *)
  let cas_attempts = ref 0 in
  let emit ev = trace_rev := ev :: !trace_rev in

  (* One effect handler per process, built once per run. An operation
     parks its object and op in the process's slots and hands back the
     process's preallocated hook, which records the continuation, so a
     [perform] allocates no closure. Resumptions via
     [Effect.Deep.continue] re-enter the same handler. *)
  let parked_obj = Array.make n (Obj_id.of_int 0) in
  let parked_op = Array.make n Op.Read in
  let handler proc =
    let park =
      Some
        (fun (k : (Value.t, unit) Effect.Deep.continuation) ->
          statuses.(proc) <- Pending { obj = parked_obj.(proc); op = parked_op.(proc); k })
    in
    {
      Effect.Deep.retc = (fun v -> statuses.(proc) <- Finished v);
      exnc = (fun e -> statuses.(proc) <- Failed (Printexc.to_string e));
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Proc.Invoke (obj, op) ->
              parked_obj.(proc) <- obj;
              parked_op.(proc) <- op;
              park
          | _ -> None);
    }
  in
  let handlers = Array.init n handler in
  (* Launch a body; it runs to its first operation (captured as Pending),
     to completion, or to an exception. *)
  let start proc body = Effect.Deep.match_with body () handlers.(proc) in
  (* Trace a process that has just decided or raised. *)
  let settled proc =
    match statuses.(proc) with
    | Finished v -> emit (Trace.Decided { step = !step_counter; proc; value = v })
    | Failed msg -> emit (Trace.Crashed { step = !step_counter; proc; error = msg })
    | Pending _ | Hung_at _ | Limited -> ()
  in
  Array.iteri
    (fun i body ->
      start i body;
      settled i)
    bodies;

  let enabled () =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      match statuses.(i) with Pending _ -> acc := i :: !acc | _ -> ()
    done;
    !acc
  in

  (* Menu of observable, budget-permitted faulty outcomes for this step,
     headed by the correct outcome. Crash points ride the same menu: when
     a recovery entry exists and the crash budget has headroom, the
     invoking process may crash here instead of completing — vanishing
     the op, or (when the persistence mode keeps committed effects and
     the op has one) linearizing it with the response lost. *)
  let options_for proc obj kind op pre correct =
    let crash_tail =
      match recovery with
      | Some _ when Budget.can_crash cfg.budget ~proc ->
          if lossy || Value.equal correct.Semantics.post_state pre then crash_vanish
          else crash_both
      | None | Some _ -> []
    in
    let tail =
      if Budget.can_fault cfg.budget obj then
        faults_onto crash_tail cfg.allowed_faults ~palette ~kind ~op ~pre ~correct
      else crash_tail
    in
    match tail with
    | [] -> menu_correct
    | [ Crash_point Crash_plan.Vanish ] -> menu_vanish
    | [ Crash_point Crash_plan.Vanish; Crash_point Crash_plan.Linearize ] -> menu_both
    | _ -> Correct_outcome :: tail
  in

  (* A driver choice is honored if it is in the menu, or if it is a
     payload-carrying fault that the engine can validate directly (lets
     strategy-mode injectors use payloads outside the exploration
     palette). Anything else executes correctly. *)
  let validate_choice choice options obj kind op pre correct =
    match choice with
    | Correct_outcome -> Correct_outcome
    | Crash_point _ ->
        (* Crash points are never validated out of band: the menu already
           encodes the budget, recovery-entry, and persistence gates. *)
        if mem_choice choice options then choice else Correct_outcome
    | Inject (fk, payload) -> (
        if mem_choice choice options then choice
        else
          match fk with
          | Fault_kind.Invisible | Fault_kind.Arbitrary | Fault_kind.Relaxation
            when mem_kind fk cfg.allowed_faults && Budget.can_fault cfg.budget obj -> (
              match Faulty_semantics.apply fk ?payload ~kind ~state:pre op with
              | Ok (Faulty_semantics.Outcome o) when outcome_differs o correct -> choice
              | Ok _ | Error _ -> Correct_outcome)
          | Fault_kind.Overriding | Fault_kind.Silent | Fault_kind.Nonresponsive
          | Fault_kind.Invisible | Fault_kind.Arbitrary | Fault_kind.Relaxation ->
              Correct_outcome)
  in

  (* Complete the pending op of [proc] with [outcome] and run the process
     to its next operation. *)
  let continue_with proc oi obj op pre k (outcome : Semantics.outcome) injected =
    let post = outcome.Semantics.post_state in
    obj_states.(oi) <- post;
    if lossy && not (Value.equal pre post) then last_write.(proc) <- Some (oi, pre, post);
    emit
      (Trace.Op_step
         {
           step = !step_counter;
           proc;
           obj;
           op;
           pre_state = pre;
           post_state = post;
           response = outcome.Semantics.response;
           injected;
         });
    Effect.Deep.continue k outcome.Semantics.response;
    settled proc
  in

  let crash_restart proc oi obj op pre (correct : Semantics.outcome) effect =
    Budget.charge_crash cfg.budget ~proc;
    Metrics.incr m_crashes;
    let post =
      match effect with
      | Crash_plan.Vanish -> pre
      | Crash_plan.Linearize -> correct.Semantics.post_state
    in
    obj_states.(oi) <- post;
    (* The captured continuation is dropped, never resumed: that IS the
       crash — program counter and locals are gone (same mechanism as a
       nonresponsive hang, but the process comes back below). *)
    emit
      (Trace.Proc_crash
         { step = !step_counter; proc; obj; op; pre_state = pre; post_state = post; effect });
    (* Lossy persistence: the crashing process's most recent completed
       write may not have been flushed — roll it back if the object still
       holds that exact value. *)
    (if lossy then
       match last_write.(proc) with
       | Some (wi, wpre, wpost)
         when Value.equal obj_states.(wi) wpost && not (Value.equal wpre wpost) ->
           obj_states.(wi) <- wpre;
           emit
             (Trace.Nvm_loss
                { step = !step_counter; obj = Obj_id.of_int wi; before = wpost; after = wpre })
       | _ -> ());
    (* Volatile objects (not NVM-tagged) do not survive the crash: they
       revert to their initial value. *)
    (match cfg.persistence with
    | Persistence.Persist_only _ ->
        for i = 0 to n_objs - 1 do
          let id = Obj_id.of_int i in
          if not (Persistence.survives cfg.persistence id) then begin
            let before = obj_states.(i) in
            let init = World.init_of world id in
            if not (Value.equal before init) then begin
              obj_states.(i) <- init;
              emit (Trace.Nvm_loss { step = !step_counter; obj = id; before; after = init })
            end
          end
        done
    | Persistence.Persist_all | Persistence.Persist_lossy -> ());
    last_write.(proc) <- None;
    emit (Trace.Restart { step = !step_counter; proc });
    start proc ((Option.get recovery) proc);
    settled proc
  in

  let exec_step proc =
    match statuses.(proc) with
    | Pending { obj; op; k } -> (
        let oi = Obj_id.to_int obj in
        let pre = obj_states.(oi) in
        let kind = World.kind_of world obj in
        if Op.is_cas op then incr cas_attempts;
        match Semantics.apply kind ~state:pre op with
        | Error e ->
            let error = Fmt.str "illegal operation: %a" Semantics.pp_error e in
            statuses.(proc) <- Failed error;
            emit (Trace.Crashed { step = !step_counter; proc; error })
        | Ok correct -> (
            let ctx =
              {
                Injector.obj;
                op;
                state = pre;
                proc;
                step = !step_counter;
                op_index = !op_counter;
                budget = cfg.budget;
              }
            in
            let options = options_for proc obj kind op pre correct in
            let choice = driver.choose_outcome ctx ~options in
            let choice = validate_choice choice options obj kind op pre correct in
            incr op_counter;
            match choice with
            | Correct_outcome -> continue_with proc oi obj op pre k correct None
            | Crash_point effect -> crash_restart proc oi obj op pre correct effect
            | Inject (fk, payload) -> (
                match Faulty_semantics.apply fk ?payload ~kind ~state:pre op with
                | Error e ->
                    invalid_arg
                      (Fmt.str "Engine: validated fault failed to apply: %a"
                         Faulty_semantics.pp_error e)
                | Ok Faulty_semantics.Hangs ->
                    Budget.charge cfg.budget obj;
                    Metrics.incr (m_fault_of fk);
                    statuses.(proc) <- Hung_at { obj; op };
                    emit (Trace.Hang { step = !step_counter; proc; obj; op })
                | Ok (Faulty_semantics.Outcome o) ->
                    Budget.charge cfg.budget obj;
                    Metrics.incr (m_fault_of fk);
                    continue_with proc oi obj op pre k o (Some fk))))
    | Finished _ | Hung_at _ | Limited | Failed _ ->
        invalid_arg "Engine.exec_step: process not pending"
  in

  let state_of id = obj_states.(Obj_id.to_int id) in
  let corrupt { Data_fault.obj; value } =
    let oi = Obj_id.to_int obj in
    let before = obj_states.(oi) in
    (* No-op corruptions are unobservable; over-budget ones throttle. *)
    if (not (Value.equal before value)) && Budget.can_fault cfg.budget obj then begin
      Budget.charge cfg.budget obj;
      Metrics.incr m_corruptions;
      obj_states.(oi) <- value;
      emit (Trace.Corruption { step = !step_counter; obj; before; after = value })
    end
  in
  let apply_data_faults () =
    List.iter corrupt
      (driver.after_step { Data_fault.step = !step_counter; state_of; budget = cfg.budget })
  in

  let total_limit_hit = ref false in
  let interrupted = ref false in
  (* Poll the interrupt hook every 2^8 steps: cheap enough to leave on in
     the innermost loop, fine-grained enough that a trial deadline
     lands within microseconds of tripping. Step 0 polls, so an
     already-tripped token cancels before any work. *)
  let poll_interrupt () =
    !step_counter land 0xff = 0 && cfg.interrupt () && begin
      interrupted := true;
      true
    end
  in
  let rec loop () =
    match enabled () with
    | [] -> ()
    | en ->
        if !step_counter >= cfg.max_total_steps then total_limit_hit := true
        else if poll_interrupt () then ()
        else begin
          let proc = driver.choose_proc ~enabled:en ~step:!step_counter in
          if not (mem_proc proc en) then
            invalid_arg (Fmt.str "Engine: scheduler picked disabled process p%d" proc);
          steps_taken.(proc) <- steps_taken.(proc) + 1;
          if steps_taken.(proc) > cfg.max_steps_per_proc then begin
            statuses.(proc) <- Limited;
            emit (Trace.Step_limit_hit { step = !step_counter; proc })
          end
          else exec_step proc;
          incr step_counter;
          apply_data_faults ();
          loop ()
        end
  in
  Fun.protect
    ~finally:(fun () ->
      (* flush even when an injector/scheduler raises through the loop *)
      if !step_counter > 0 then Metrics.add m_steps !step_counter;
      if !cas_attempts > 0 then Metrics.add m_cas !cas_attempts)
    loop;

  let outcomes =
    Array.mapi
      (fun i st ->
        match st with
        | Finished v -> Decided v
        | Hung_at _ -> Hung
        | Limited -> Exhausted { steps = steps_taken.(i); budget = cfg.max_steps_per_proc }
        | Failed msg -> Crashed msg
        | Pending _ ->
            (* still runnable at loop exit: cancelled, or the total-step
               budget ran out with work left *)
            if !interrupted then Cancelled else Step_limited)
      statuses
  in
  {
    outcomes;
    final_states = obj_states;
    steps_taken;
    total_steps = !step_counter;
    trace = List.rev !trace_rev;
    budget = cfg.budget;
    total_limit_hit = !total_limit_hit;
    interrupted = !interrupted;
  }

let run cfg ~scheduler ~injector ?(data_faults = Data_fault.never) ~bodies () =
  let driver =
    {
      choose_proc = scheduler.Scheduler.pick;
      choose_outcome =
        (fun ctx ~options:_ ->
          match injector.Injector.decide ctx with
          | Injector.No_fault -> Correct_outcome
          | Injector.Fault { kind; payload } -> Inject (kind, payload));
      after_step = data_faults.Data_fault.decide;
    }
  in
  run_with_driver cfg driver ~bodies
