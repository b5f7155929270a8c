(* Additional engine, scheduler and harness edge cases, plus cross-cutting
   determinism and agreement properties. *)

open Ffault_objects
module Sim = Ffault_sim
module World = Sim.World
module Scheduler = Sim.Scheduler
module Engine = Sim.Engine
module Proc = Sim.Proc
module Trace = Sim.Trace
module Fault = Ffault_fault
module Fault_kind = Fault.Fault_kind
module Budget = Fault.Budget
module Injector = Fault.Injector
module Consensus = Ffault_consensus
module Protocol = Consensus.Protocol
module Check = Ffault_verify.Consensus_check

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let i n = Value.Int n
let oid = Obj_id.of_int

let herlihy_body input () =
  let old = Proc.cas (oid 0) ~expected:Value.Bottom ~desired:input in
  if Value.is_bottom old then input else old

(* ---- engine edges ---- *)

let test_max_total_steps_flag () =
  (* Two processes spinning forever; total budget runs out first. *)
  let world = World.cas_world ~n_procs:2 ~objects:1 in
  let cfg =
    Engine.config ~max_steps_per_proc:1000 ~max_total_steps:40 ~world
      ~budget:(Budget.none ()) ()
  in
  let spin () =
    let rec loop () =
      ignore (Proc.cas (oid 0) ~expected:(i 999) ~desired:(i 1));
      loop ()
    in
    loop ()
  in
  let r =
    Engine.run cfg ~scheduler:(Scheduler.round_robin ()) ~injector:Injector.never
      ~bodies:[| spin; spin |] ()
  in
  check Alcotest.bool "total limit flagged" true r.Engine.total_limit_hit;
  check Alcotest.int "stopped at the cap" 40 r.Engine.total_steps;
  Array.iter
    (fun o ->
      match o with
      | Engine.Step_limited -> ()
      | o -> Alcotest.failf "expected Step_limited, got %a" Engine.pp_proc_outcome o)
    r.Engine.outcomes

let test_final_states_reported () =
  let world = World.cas_world ~n_procs:1 ~objects:2 in
  let body () =
    ignore (Proc.cas (oid 1) ~expected:Value.Bottom ~desired:(i 9));
    i 0
  in
  let cfg = Engine.config ~world ~budget:(Budget.none ()) () in
  let r =
    Engine.run cfg ~scheduler:(Scheduler.round_robin ()) ~injector:Injector.never
      ~bodies:[| body |] ()
  in
  check Test_objects.value_testable_for_reuse "untouched object" Value.Bottom
    r.Engine.final_states.(0);
  check Test_objects.value_testable_for_reuse "written object" (i 9) r.Engine.final_states.(1)

let test_decided_values_in_proc_order () =
  let world = World.cas_world ~n_procs:3 ~objects:1 in
  let cfg = Engine.config ~world ~budget:(Budget.none ()) () in
  let r =
    Engine.run cfg ~scheduler:(Scheduler.round_robin ()) ~injector:Injector.never
      ~bodies:(Array.init 3 (fun p -> herlihy_body (i (100 + p)))) ()
  in
  check (Alcotest.list Alcotest.int) "proc order" [ 0; 1; 2 ]
    (List.map fst (Engine.decided_values r))

let test_immediate_completion_body () =
  (* A body that performs no shared operation at all. *)
  let world = World.cas_world ~n_procs:2 ~objects:1 in
  let cfg = Engine.config ~world ~budget:(Budget.none ()) () in
  let r =
    Engine.run cfg ~scheduler:(Scheduler.round_robin ()) ~injector:Injector.never
      ~bodies:[| (fun () -> i 42); herlihy_body (i 101) |] ()
  in
  (match r.Engine.outcomes.(0) with
  | Engine.Decided v -> check Test_objects.value_testable_for_reuse "own value" (i 42) v
  | o -> Alcotest.failf "expected Decided, got %a" Engine.pp_proc_outcome o);
  check Alcotest.int "no steps charged to it" 0 r.Engine.steps_taken.(0)

let test_trace_pp_smoke () =
  (* Rendering every event variant must not raise. *)
  let world = World.cas_world ~n_procs:2 ~objects:1 in
  let events =
    [
      Trace.Op_step
        {
          step = 0; proc = 0; obj = oid 0;
          op = Op.Cas { expected = Value.Bottom; desired = i 1 };
          pre_state = Value.Bottom; post_state = i 1; response = Value.Bottom;
          injected = Some Fault_kind.Overriding;
        };
      Trace.Hang { step = 1; proc = 1; obj = oid 0; op = Op.Read };
      Trace.Corruption { step = 2; obj = oid 0; before = i 1; after = i 2 };
      Trace.Decided { step = 3; proc = 0; value = i 1 };
      Trace.Step_limit_hit { step = 4; proc = 1 };
      Trace.Crashed { step = 5; proc = 1; error = "boom" };
    ]
  in
  let rendered = Fmt.str "%a" (Trace.pp ~world) events in
  check Alcotest.bool "non-empty" true (String.length rendered > 50)

let test_obj_id_validation () =
  Alcotest.check_raises "negative id" (Invalid_argument "Obj_id.of_int: negative id")
    (fun () -> ignore (oid (-1)))

let test_world_unknown_object () =
  let world = World.cas_world ~n_procs:1 ~objects:1 in
  Alcotest.check_raises "unknown object" (Invalid_argument "World: unknown object O5")
    (fun () -> ignore (World.kind_of world (oid 5)))

(* ---- properties ---- *)

let prop_engine_deterministic =
  QCheck.Test.make ~name:"identical seeds give identical runs" ~count:60 QCheck.int64
    (fun seed ->
      let go () =
        let world = World.cas_world ~n_procs:3 ~objects:2 in
        let budget = Budget.create ~max_faulty_objects:2 ~max_faults_per_object:(Some 2) () in
        let cfg = Engine.config ~world ~budget () in
        let body p () =
          let v = i (100 + p) in
          let old0 = Proc.cas (oid 0) ~expected:Value.Bottom ~desired:v in
          let est = if Value.is_bottom old0 then v else old0 in
          let old1 = Proc.cas (oid 1) ~expected:Value.Bottom ~desired:est in
          if Value.is_bottom old1 then est else old1
        in
        let r =
          Engine.run cfg
            ~scheduler:(Scheduler.random ~seed)
            ~injector:
              (Injector.probabilistic ~seed:(Int64.add seed 1L) ~p:0.5 Fault_kind.Overriding)
            ~bodies:(Array.init 3 body) ()
        in
        (Engine.decided_values r, r.Engine.total_steps,
         Fault.Budget.total_faults r.Engine.budget)
      in
      go () = go ())

let prop_fig2_agreement_random_settings =
  QCheck.Test.make ~name:"fig2 agrees across random (f, n, seed)" ~count:60
    QCheck.(triple (int_range 1 4) (int_range 2 6) int64)
    (fun (f, n, seed) ->
      let setup = Check.setup Consensus.F_tolerant.protocol (Protocol.params ~n_procs:n ~f ()) in
      let report =
        Check.run setup
          ~scheduler:(Scheduler.random ~seed)
          ~injector:(Injector.probabilistic ~seed:(Int64.add seed 7L) ~p:0.6 Fault_kind.Overriding)
          ()
      in
      Check.ok report)

let prop_fig3_agreement_random_settings =
  QCheck.Test.make ~name:"fig3 agrees across random (f, t, seed)" ~count:40
    QCheck.(triple (int_range 1 3) (int_range 1 2) int64)
    (fun (f, t, seed) ->
      let setup =
        Check.setup Consensus.Bounded_faults.protocol
          (Protocol.params ~t ~n_procs:(f + 1) ~f ())
      in
      let report =
        Check.run setup
          ~scheduler:(Scheduler.random ~seed)
          ~injector:(Injector.probabilistic ~seed:(Int64.add seed 3L) ~p:0.5 Fault_kind.Overriding)
          ()
      in
      Check.ok report)

let prop_audit_always_clean =
  (* Whatever the engine does within its rules, the Definition-1 audit of
     the produced trace must be clean. *)
  QCheck.Test.make ~name:"engine traces always pass the \xce\xa6/\xce\xa6' audit" ~count:60
    QCheck.int64 (fun seed ->
      let world = World.cas_world ~n_procs:3 ~objects:2 in
      let budget = Budget.create ~max_faulty_objects:2 ~max_faults_per_object:None () in
      let cfg = Engine.config ~world ~budget () in
      let r =
        Engine.run cfg
          ~scheduler:(Scheduler.random ~seed)
          ~injector:(Injector.always Fault_kind.Overriding)
          ~bodies:(Array.init 3 (fun p -> herlihy_body (i (100 + p)))) ()
      in
      Trace.audit ~world r.Engine.trace = [])

(* ---- engine byte-identity ---- *)

(* Each scenario renders everything a run returns, plus every menu and
   context the driver was shown, and pins the MD5 of that text. Together
   the scenarios reach every branch of menu construction, choice
   validation and step execution, so a change to the engine that is meant
   to keep its behaviour must keep every digest. *)

module Splitmix = Ffault_prng.Splitmix
module Data_fault = Fault.Data_fault
module Persistence = Ffault_recover.Persistence
module Crash_plan = Ffault_recover.Crash_plan

let pp_ctx ppf (c : Injector.ctx) =
  Fmt.pf ppf "p%d %a %a on %a at step %d op %d, %a" c.Injector.proc Obj_id.pp c.Injector.obj
    Op.pp c.Injector.op Value.pp c.Injector.state c.Injector.step c.Injector.op_index Budget.pp
    c.Injector.budget

let pp_result ~world ppf (r : Engine.result) =
  Fmt.pf ppf "%a@.outcomes %a@.final %a@.steps %a@.total %d, limit hit %b, interrupted %b@.%a@."
    (Trace.pp ~world) r.Engine.trace
    Fmt.(array ~sep:(any "; ") Engine.pp_proc_outcome)
    r.Engine.outcomes
    Fmt.(array ~sep:(any "; ") Value.pp)
    r.Engine.final_states
    Fmt.(array ~sep:(any " ") int)
    r.Engine.steps_taken r.Engine.total_steps r.Engine.total_limit_hit r.Engine.interrupted
    Budget.pp r.Engine.budget

(* A seeded driver that logs what it is shown: a uniform pick among the
   enabled processes, then, with probability [rate], a uniform pick from
   the menu, else the correct outcome. With [stray], one choice in five
   is drawn from that list instead, in or out of the menu. *)
let logging_driver ?(stray = []) ?(after_step = fun _ -> []) log ~seed ~rate =
  let g = Splitmix.create seed in
  let pick l = List.nth l (Splitmix.next_int g ~bound:(List.length l)) in
  {
    Engine.choose_proc =
      (fun ~enabled ~step ->
        let p = pick enabled in
        Fmt.pf log "step %d: [%a] -> p%d@." step Fmt.(list ~sep:sp int) enabled p;
        p);
    choose_outcome =
      (fun ctx ~options ->
        let c =
          match stray with
          | _ :: _ when Splitmix.next_float g < 0.2 -> pick stray
          | _ -> if Splitmix.next_float g < rate then pick options else Engine.Correct_outcome
        in
        Fmt.pf log "%a: [%a] -> %a@." pp_ctx ctx
          Fmt.(list ~sep:(any "; ") Engine.pp_outcome_choice)
          options Engine.pp_outcome_choice c;
        c);
    after_step;
  }

let render f =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf 200;
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents b

let digest_runs runs =
  Digest.to_hex (Digest.string (render (fun ppf -> List.iter (fun run -> run ppf) runs)))

let seeds = List.init 6 (fun k -> Int64.of_int (k + 1))

(* Every seed of one setup under the logging driver, crash menus armed
   when the setup has a recover setting. *)
let setup_runs ?stray ?(rate = 0.5) setup =
  List.map
    (fun seed ppf ->
      let report = Check.run_with_driver setup (logging_driver ?stray ppf ~seed ~rate) in
      pp_result ~world:(Check.world setup) ppf report.Check.result)
    seeds

let all_cas_kinds =
  Fault_kind.[ Overriding; Silent; Invisible; Arbitrary; Nonresponsive ]

let cas_palette = [ i 100; i 101 ]

let golden_cas_kinds () =
  List.concat_map
    (fun (protocol, params) ->
      setup_runs
        (Check.setup ~allowed_faults:all_cas_kinds ~payload_palette:cas_palette protocol params))
    [
      (Consensus.Bounded_faults.protocol, Protocol.params ~t:2 ~n_procs:3 ~f:2 ());
      (Consensus.Single_cas.herlihy, Protocol.params ~n_procs:3 ~f:1 ());
      (Consensus.Silent_retry.protocol, Protocol.params ~t:2 ~n_procs:2 ~f:1 ());
    ]

(* A queue shared by three processes: two enqueues and two dequeues each,
   so dequeues see queues of several lengths. *)
let queue_world = World.make ~n_procs:3 [ World.obj ~label:"Q" Kind.Queue ]

let queue_body p () =
  let q = oid 0 in
  Proc.enqueue q (i (10 * p));
  Proc.enqueue q (i ((10 * p) + 1));
  let first = Proc.dequeue q in
  ignore (Proc.dequeue q);
  first

let queue_runs ?stray () =
  List.map
    (fun seed ppf ->
      let budget = Budget.create ~max_faulty_objects:1 ~max_faults_per_object:(Some 3) () in
      let cfg =
        Engine.config
          ~allowed_faults:Fault_kind.[ Overriding; Relaxation; Silent; Nonresponsive ]
          ~payload_palette:[ i 1; i 2 ] ~world:queue_world ~budget ()
      in
      let r =
        Engine.run_with_driver cfg (logging_driver ?stray ppf ~seed ~rate:0.5)
          ~bodies:(Array.init 3 queue_body)
      in
      pp_result ~world:queue_world ppf r)
    seeds

let crash_setup protocol ~n ~f persistence =
  Check.setup
    ~allowed_faults:Fault_kind.[ Overriding; Silent; Arbitrary ]
    ~payload_palette:cas_palette
    ~recover:{ Check.crashes_per_proc = 2; persistence }
    protocol
    (Protocol.params ~t:1 ~n_procs:n ~f ())

let golden_crash persistence =
  setup_runs (crash_setup Consensus.Recoverable.rec_cas ~n:3 ~f:1 persistence)
  @ setup_runs (crash_setup Consensus.Recoverable.rec_tas ~n:2 ~f:1 persistence)
  @ setup_runs (crash_setup Consensus.Recoverable.naive_tas ~n:2 ~f:0 persistence)

(* Choices a driver may return that the menu need not hold: faults of
   kinds the run does not allow, payloads outside the palette, a payload
   equal to the correct response, a missing payload, and crash points in
   a run with no recovery entry. *)
let stray_choices =
  Engine.
    [
      Inject (Fault_kind.Arbitrary, Some (i 77));
      Inject (Fault_kind.Invisible, Some (i 55));
      Inject (Fault_kind.Invisible, Some Value.Bottom);
      Inject (Fault_kind.Arbitrary, None);
      Inject (Fault_kind.Silent, None);
      Inject (Fault_kind.Overriding, None);
      Inject (Fault_kind.Relaxation, Some (i 0));
      Crash_point Crash_plan.Vanish;
      Crash_point Crash_plan.Linearize;
    ]

let queue_strays =
  Engine.
    [
      Inject (Fault_kind.Relaxation, Some (i 0));
      Inject (Fault_kind.Relaxation, Some (i 3));
      Inject (Fault_kind.Relaxation, Some (i 9));
      Inject (Fault_kind.Relaxation, Some (Value.Bool true));
      Inject (Fault_kind.Nonresponsive, None);
    ]

let golden_stray () =
  setup_runs ~stray:stray_choices
    (Check.setup
       ~allowed_faults:Fault_kind.[ Overriding; Arbitrary; Invisible ]
       ~payload_palette:[ i 100 ] Consensus.Single_cas.herlihy
       (Protocol.params ~n_procs:3 ~f:2 ()))
  @ setup_runs ~stray:stray_choices
      (crash_setup Consensus.Recoverable.rec_cas ~n:3 ~f:1 Persistence.Persist_all)
  @ queue_runs ~stray:queue_strays ()

(* Strategy mode: the injector never sees the menu, so its payloads lie
   outside the palette and must pass the engine's own validation. *)
let golden_strategy () =
  let setup =
    Check.setup
      ~allowed_faults:Fault_kind.[ Overriding; Arbitrary; Invisible ]
      ~payload_palette:cas_palette Consensus.Bounded_faults.protocol
      (Protocol.params ~t:2 ~n_procs:3 ~f:2 ())
  in
  let injectors seed =
    [
      Injector.always
        ~payload:(fun c -> i (40 + c.Injector.op_index))
        Fault_kind.Arbitrary;
      Injector.always ~payload:(fun c -> i (60 + c.Injector.op_index)) Fault_kind.Invisible;
      Injector.mixed ~seed
        Fault_kind.[ (Overriding, 0.2); (Silent, 0.2); (Invisible, 0.2); (Nonresponsive, 0.1) ];
    ]
  in
  List.concat_map
    (fun seed ->
      List.map
        (fun injector ppf ->
          let report = Check.run setup ~scheduler:(Scheduler.random ~seed) ~injector () in
          pp_result ~world:(Check.world setup) ppf report.Check.result)
        (injectors seed))
    seeds

let golden_data_faults () =
  let setup =
    Check.setup Consensus.Bounded_faults.protocol (Protocol.params ~t:2 ~n_procs:3 ~f:2 ())
  in
  let world = Check.world setup in
  List.concat_map
    (fun seed ->
      [
        (fun ppf ->
          let data_faults =
            Data_fault.probabilistic ~seed ~p:0.3 ~objects:[ oid 0; oid 1 ]
              ~values:[ i 100; i 101; Value.Bottom ]
          in
          let report =
            Check.run setup ~scheduler:(Scheduler.random ~seed) ~injector:Injector.never
              ~data_faults ()
          in
          pp_result ~world ppf report.Check.result);
        (fun ppf ->
          (* corrupt O0 to the other input every third step, and O1 to
             its own content (a no-op the engine must drop) *)
          let after_step (c : Data_fault.ctx) =
            if c.Data_fault.step mod 3 <> 0 then []
            else
              [
                { Data_fault.obj = oid 0; value = i (100 + (c.Data_fault.step mod 2)) };
                { Data_fault.obj = oid 1; value = c.Data_fault.state_of (oid 1) };
              ]
          in
          let report =
            Check.run_with_driver setup (logging_driver ~after_step ppf ~seed ~rate:0.5)
          in
          pp_result ~world ppf report.Check.result);
      ])
    seeds

(* Three processes that CAS forever, under per-process and total step
   limits and a deadline that trips at the third poll (step 512). *)
let spin_world = World.cas_world ~n_procs:3 ~objects:2

let spin p () =
  let rec loop k =
    ignore (Proc.cas (oid (k mod 2)) ~expected:(i k) ~desired:(i (p + k + 1)));
    loop (k + 1)
  in
  loop 0

let spin_runs ~max_steps_per_proc ~max_total_steps ?interrupt () =
  List.map
    (fun seed ppf ->
      let budget = Budget.create ~max_faulty_objects:1 ~max_faults_per_object:(Some 2) () in
      let interrupt =
        match interrupt with
        | None -> None
        | Some trip_at ->
            let polls = ref 0 in
            Some
              (fun () ->
                incr polls;
                !polls >= trip_at)
      in
      let cfg =
        Engine.config
          ~allowed_faults:Fault_kind.[ Overriding; Silent ]
          ~max_steps_per_proc ~max_total_steps ?interrupt ~world:spin_world ~budget ()
      in
      let r =
        Engine.run_with_driver cfg (logging_driver ppf ~seed ~rate:0.3)
          ~bodies:(Array.init 3 spin)
      in
      pp_result ~world:spin_world ppf r)
    (List.filteri (fun k _ -> k < 2) seeds)

(* Bodies that decide before any operation, raise before or after one,
   and invoke an operation their object does not support. *)
let golden_odd_bodies () =
  let world = World.make ~n_procs:4 [ World.obj Kind.Cas_only; World.obj Kind.Register ] in
  let bodies =
    [|
      (fun () -> i 7);
      (fun () -> failwith "raised before any operation");
      (fun () -> Proc.read (oid 0));
      (fun () ->
        Proc.write (oid 1) (i 3);
        failwith "raised after a write");
    |]
  in
  List.map
    (fun seed ppf ->
      let cfg =
        Engine.config ~allowed_faults:all_cas_kinds ~payload_palette:cas_palette ~world
          ~budget:(Budget.unlimited ()) ()
      in
      let r = Engine.run_with_driver cfg (logging_driver ppf ~seed ~rate:0.5) ~bodies in
      pp_result ~world ppf r)
    seeds

let engine_golden =
  [
    ("cas fault kinds", golden_cas_kinds, "1b96b78f4e841d22a101bc3036cf3e56");
    ("queue relaxation", (fun () -> queue_runs ()), "e08c850c69158c4f7ef8b6511c0e84ce");
    ( "crash persist-all",
      (fun () -> golden_crash Persistence.Persist_all),
      "49ca52b97d51b7d559360847f85562b3" );
    ( "crash persist-lossy",
      (fun () -> golden_crash Persistence.Persist_lossy),
      "a118ea0db4e86dea7e693b0b2297ceb2" );
    ( "crash persist-only",
      (fun () -> golden_crash (Persistence.Persist_only [ oid 2 ])),
      "54dac7567b72e0850eeaafe1be9ef963" );
    ("choices outside the menu", golden_stray, "58cab487c87850700b130ba8801ba4c3");
    ("strategy-mode injectors", golden_strategy, "46615ff36f285c1e72ddec67d4683ca9");
    ("data faults", golden_data_faults, "65f827410ddec0091539ff9a71c1de0c");
    ( "per-process step limit",
      (fun () -> spin_runs ~max_steps_per_proc:7 ~max_total_steps:1000 ()),
      "9689d1a285e1c102dc4667dada5a03bc" );
    ( "total step limit",
      (fun () -> spin_runs ~max_steps_per_proc:1000 ~max_total_steps:25 ()),
      "d6dbbf469d1dbbab1331597046c69ac5" );
    ( "interrupt mid-run",
      (fun () -> spin_runs ~max_steps_per_proc:10_000 ~max_total_steps:100_000 ~interrupt:3 ()),
      "a433e082607fbd52a32c68ec0cbf50e7" );
    ("bodies that end early or fail", golden_odd_bodies, "8064b256ec571395f72c8e51fdbe7c97");
  ]

let test_engine_golden (name, runs, expected) () =
  let actual = digest_runs (runs ()) in
  if not (String.equal expected actual) then
    Alcotest.failf
      "engine rendering of %S changed: digest %s, pinned %s. A behaviour-preserving engine \
       change must keep these bytes; re-pin only for an intended change of behaviour."
      name actual expected

let suites =
  [
    ( "sim.engine-edge",
      [
        Alcotest.test_case "max total steps" `Quick test_max_total_steps_flag;
        Alcotest.test_case "final states" `Quick test_final_states_reported;
        Alcotest.test_case "decided values order" `Quick test_decided_values_in_proc_order;
        Alcotest.test_case "immediate completion" `Quick test_immediate_completion_body;
        Alcotest.test_case "trace pp smoke" `Quick test_trace_pp_smoke;
        Alcotest.test_case "obj id validation" `Quick test_obj_id_validation;
        Alcotest.test_case "world unknown object" `Quick test_world_unknown_object;
        qcheck prop_engine_deterministic;
        qcheck prop_audit_always_clean;
      ] );
    ( "sim.engine-golden",
      List.map
        (fun ((name, _, _) as case) ->
          Alcotest.test_case name `Quick (test_engine_golden case))
        engine_golden );
    ( "consensus.properties",
      [ qcheck prop_fig2_agreement_random_settings; qcheck prop_fig3_agreement_random_settings ]
    );
  ]
