(* Tests for the fault model: kinds, faulty semantics, budgets, injectors
   and the data-fault baseline. *)

open Ffault_objects
module Fault_kind = Ffault_fault.Fault_kind
module FS = Ffault_fault.Faulty_semantics
module Budget = Ffault_fault.Budget
module Injector = Ffault_fault.Injector
module Data_fault = Ffault_fault.Data_fault

let check = Alcotest.check
let value_testable = Test_objects.value_testable_for_reuse
let i n = Value.Int n
let bot = Value.Bottom
let cas ~expected ~desired = Op.Cas { expected; desired }

(* ---- Fault_kind ---- *)

let test_kind_string_roundtrip () =
  List.iter
    (fun k ->
      check Alcotest.bool (Fault_kind.to_string k) true
        (Fault_kind.of_string (Fault_kind.to_string k) = Some k))
    Fault_kind.all;
  check Alcotest.bool "unknown" true (Fault_kind.of_string "zap" = None)

let test_kind_responsive () =
  check Alcotest.bool "overriding responsive" true (Fault_kind.is_responsive Overriding);
  check Alcotest.bool "nonresponsive not" false (Fault_kind.is_responsive Nonresponsive)

let test_kind_phi' () =
  check Alcotest.bool "nonresponsive has no \xce\xa6'" true
    (Fault_kind.phi' Nonresponsive = None);
  List.iter
    (fun k -> check Alcotest.bool (Fault_kind.to_string k) true (Fault_kind.phi' k <> None))
    [ Fault_kind.Overriding; Silent; Invisible; Arbitrary ]

(* ---- Faulty_semantics ---- *)

let outcome_exn = function
  | Ok (FS.Outcome o) -> o
  | Ok FS.Hangs -> Alcotest.fail "unexpected hang"
  | Error e -> Alcotest.failf "unexpected error: %a" FS.pp_error e

let test_overriding_semantics () =
  let o =
    outcome_exn
      (FS.apply Overriding ~kind:Kind.Cas_only ~state:(i 3)
         (cas ~expected:bot ~desired:(i 5)))
  in
  check value_testable "writes desired regardless" (i 5) o.Semantics.post_state;
  check value_testable "old is truthful" (i 3) o.Semantics.response

let test_silent_semantics () =
  let o =
    outcome_exn
      (FS.apply Silent ~kind:Kind.Cas_only ~state:bot (cas ~expected:bot ~desired:(i 5)))
  in
  check value_testable "suppresses the write" bot o.Semantics.post_state;
  check value_testable "old is truthful" bot o.Semantics.response

let test_invisible_semantics () =
  let o =
    outcome_exn
      (FS.apply Invisible ~payload:(i 9) ~kind:Kind.Cas_only ~state:(i 3)
         (cas ~expected:(i 3) ~desired:(i 5)))
  in
  check value_testable "state transitions correctly" (i 5) o.Semantics.post_state;
  check value_testable "response is the forged value" (i 9) o.Semantics.response

let test_invisible_payload_required () =
  match FS.apply Invisible ~kind:Kind.Cas_only ~state:(i 3) (cas ~expected:bot ~desired:(i 5)) with
  | Error (FS.Payload_required Invisible) -> ()
  | _ -> Alcotest.fail "expected Payload_required"

let test_invisible_payload_must_differ () =
  match
    FS.apply Invisible ~payload:(i 3) ~kind:Kind.Cas_only ~state:(i 3)
      (cas ~expected:bot ~desired:(i 5))
  with
  | Error (FS.Invalid_payload _) -> ()
  | _ -> Alcotest.fail "expected Invalid_payload"

let test_arbitrary_semantics () =
  let o =
    outcome_exn
      (FS.apply Arbitrary ~payload:(i 42) ~kind:Kind.Cas_only ~state:(i 3)
         (cas ~expected:(i 3) ~desired:(i 5)))
  in
  check value_testable "writes the payload" (i 42) o.Semantics.post_state;
  check value_testable "old is truthful" (i 3) o.Semantics.response

let test_nonresponsive_hangs () =
  match FS.apply Nonresponsive ~kind:Kind.Cas_only ~state:bot (cas ~expected:bot ~desired:(i 1)) with
  | Ok FS.Hangs -> ()
  | _ -> Alcotest.fail "expected Hangs"

let test_fault_on_non_cas () =
  match FS.apply Overriding ~kind:Kind.Register ~state:(i 1) Op.Read with
  | Error (FS.Not_applicable _) -> ()
  | _ -> Alcotest.fail "expected Not_applicable"

let test_observability () =
  (* overriding on a matching CAS is a no-op *)
  check Alcotest.bool "override on success unobservable" false
    (FS.is_observable Overriding ~state:bot (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "override on failure observable" true
    (FS.is_observable Overriding ~state:(i 2) (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "override writing the same value unobservable" false
    (FS.is_observable Overriding ~state:(i 1) (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "silent on failure unobservable" false
    (FS.is_observable Silent ~state:(i 2) (cas ~expected:bot ~desired:(i 1)));
  check Alcotest.bool "silent on success observable" true
    (FS.is_observable Silent ~state:bot (cas ~expected:bot ~desired:(i 1)))

(* ---- Budget ---- *)

let oid = Obj_id.of_int

let test_budget_basic () =
  let b = Budget.create ~max_faulty_objects:2 ~max_faults_per_object:(Some 2) () in
  check Alcotest.bool "fresh object can fault" true (Budget.can_fault b (oid 0));
  Budget.charge b (oid 0);
  Budget.charge b (oid 0);
  check Alcotest.bool "per-object cap" false (Budget.can_fault b (oid 0));
  Budget.charge b (oid 1);
  check Alcotest.bool "second object ok" true (Budget.can_fault b (oid 1));
  check Alcotest.bool "third object exceeds f" false (Budget.can_fault b (oid 2));
  check Alcotest.int "total" 3 (Budget.total_faults b);
  check (Alcotest.list Alcotest.int) "faulty objects" [ 0; 1 ]
    (List.map Obj_id.to_int (Budget.faulty_objects b))

let test_budget_unbounded_t () =
  let b = Budget.create ~max_faulty_objects:1 ~max_faults_per_object:None () in
  for _ = 1 to 100 do
    Budget.charge b (oid 3)
  done;
  check Alcotest.int "100 faults on one object" 100 (Budget.faults_on b (oid 3));
  check Alcotest.bool "other objects blocked" false (Budget.can_fault b (oid 4))

let test_budget_victims () =
  let b =
    Budget.create ~victims:[ oid 1 ] ~max_faulty_objects:2 ~max_faults_per_object:None ()
  in
  check Alcotest.bool "victim can fault" true (Budget.can_fault b (oid 1));
  check Alcotest.bool "non-victim cannot" false (Budget.can_fault b (oid 0))

let test_budget_none () =
  let b = Budget.none () in
  check Alcotest.bool "f=0 blocks all" false (Budget.can_fault b (oid 0))

let test_budget_charge_over () =
  let b = Budget.none () in
  Alcotest.check_raises "over-charge raises"
    (Invalid_argument "Budget.charge: fault on O0 exceeds budget") (fun () ->
      Budget.charge b (oid 0))

let test_budget_copy () =
  let b = Budget.create ~max_faulty_objects:1 ~max_faults_per_object:(Some 1) () in
  let c = Budget.copy b in
  Budget.charge b (oid 0);
  check Alcotest.int "copy unaffected" 0 (Budget.total_faults c);
  check Alcotest.bool "copy can still fault" true (Budget.can_fault c (oid 0))

let test_budget_validation () =
  Alcotest.check_raises "negative f" (Invalid_argument "Budget.create: max_faulty_objects < 0")
    (fun () -> ignore (Budget.create ~max_faulty_objects:(-1) ~max_faults_per_object:None ()));
  Alcotest.check_raises "t < 1" (Invalid_argument "Budget.create: max_faults_per_object < 1")
    (fun () ->
      ignore (Budget.create ~max_faulty_objects:1 ~max_faults_per_object:(Some 0) ()));
  Alcotest.check_raises "too many victims"
    (Invalid_argument "Budget.create: more victims than max_faulty_objects") (fun () ->
      ignore
        (Budget.create ~victims:[ oid 0; oid 1 ] ~max_faulty_objects:1
           ~max_faults_per_object:None ()))

(* ---- Injector ---- *)

let ctx ?(proc = 0) ?(op_index = 0) ?(state = bot) ?(obj = oid 0) () =
  {
    Injector.obj;
    op = cas ~expected:bot ~desired:(i 1);
    state;
    proc;
    step = 0;
    op_index;
    budget = Budget.unlimited ();
  }

let is_fault kind = function
  | Injector.Fault { kind = k; _ } -> Fault_kind.equal k kind
  | Injector.No_fault -> false

let test_injector_never_always () =
  check Alcotest.bool "never" true (Injector.never.Injector.decide (ctx ()) = Injector.No_fault);
  check Alcotest.bool "always overrides" true
    (is_fault Overriding ((Injector.always Overriding).Injector.decide (ctx ())))

let test_injector_probabilistic_deterministic () =
  let mk () = Injector.probabilistic ~seed:4L ~p:0.5 Fault_kind.Overriding in
  let a = mk () and b = mk () in
  for k = 0 to 50 do
    check Alcotest.bool "same seed, same decisions" true
      (a.Injector.decide (ctx ~op_index:k ()) = b.Injector.decide (ctx ~op_index:k ()))
  done

let test_injector_by_process () =
  let inj = Injector.by_process ~procs:[ 1 ] Fault_kind.Overriding in
  check Alcotest.bool "proc 1 faults" true (is_fault Overriding (inj.Injector.decide (ctx ~proc:1 ())));
  check Alcotest.bool "proc 0 does not" true
    (inj.Injector.decide (ctx ~proc:0 ()) = Injector.No_fault)

let test_injector_scripted () =
  let inj =
    Injector.on_invocations
      [ (2, Injector.Fault { kind = Fault_kind.Silent; payload = None }) ]
  in
  check Alcotest.bool "op 0 clean" true (inj.Injector.decide (ctx ~op_index:0 ()) = Injector.No_fault);
  check Alcotest.bool "op 2 faults" true
    (is_fault Silent (inj.Injector.decide (ctx ~op_index:2 ())))

let test_injector_first_per_object () =
  let inj = Injector.first_on_each_object Fault_kind.Overriding in
  check Alcotest.bool "first on O0" true
    (is_fault Overriding (inj.Injector.decide (ctx ~obj:(oid 0) ())));
  check Alcotest.bool "second on O0 clean" true
    (inj.Injector.decide (ctx ~obj:(oid 0) ()) = Injector.No_fault);
  check Alcotest.bool "first on O1" true
    (is_fault Overriding (inj.Injector.decide (ctx ~obj:(oid 1) ())))

let test_injector_payload_defaults () =
  (match (Injector.always Fault_kind.Arbitrary).Injector.decide (ctx ()) with
  | Injector.Fault { kind = Arbitrary; payload = Some _ } -> ()
  | _ -> Alcotest.fail "arbitrary needs a default payload");
  match (Injector.always Fault_kind.Invisible).Injector.decide (ctx ~state:(i 1) ()) with
  | Injector.Fault { kind = Invisible; payload = Some p } ->
      check Alcotest.bool "payload differs from state" false (Value.equal p (i 1))
  | _ -> Alcotest.fail "invisible needs a default payload"

(* ---- Data_fault ---- *)

let dctx ?(step = 0) states =
  {
    Data_fault.step;
    state_of = (fun o -> List.assoc (Obj_id.to_int o) states);
    budget = Budget.unlimited ();
  }

let test_data_fault_scripted () =
  let df = Data_fault.scripted [ (3, [ { Data_fault.obj = oid 0; value = i 9 } ]) ] in
  check Alcotest.int "nothing at step 0" 0 (List.length (df.Data_fault.decide (dctx [ (0, bot) ])));
  check Alcotest.int "fires at step 3" 1
    (List.length (df.Data_fault.decide (dctx ~step:3 [ (0, bot) ])))

let test_data_fault_probabilistic_bounds () =
  let df =
    Data_fault.probabilistic ~seed:5L ~p:1.0 ~objects:[ oid 0; oid 1 ] ~values:[ i 7 ]
  in
  let events = df.Data_fault.decide (dctx [ (0, bot); (1, bot) ]) in
  check Alcotest.int "one event at p=1" 1 (List.length events);
  List.iter
    (fun e -> check value_testable "value from palette" (i 7) e.Data_fault.value)
    events

(* ---- Budget against its reference ---- *)

(* Seeded random operation sequences drive the library's Budget and the
   reference copy of its former implementation in step, across budgets
   made every way, copies charged apart from their originals, and object
   ids far past any initial table size. Every result must agree, and
   every over-charge must raise the same message. *)

let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let test_budget_differential () =
  let pp_attempt = Fmt.result ~ok:Fmt.nop ~error:Fmt.string in
  for seed = 1 to 400 do
    let g = Ffault_prng.Splitmix.create (Int64.of_int seed) in
    let int bound = Ffault_prng.Splitmix.next_int g ~bound in
    let same ~step what pp a b =
      if a <> b then
        Alcotest.failf "seed %d, op %d, %s: library %a, reference %a" seed step what pp a pp b
    in
    (* the first ids and procs, then some far past them *)
    let obj () = oid (if int 4 = 0 then 8 + int 120 else int 8) in
    let proc () = if int 4 = 0 then 6 + int 40 else int 6 in
    (* occasionally out of range, so creation errors are compared too *)
    let bound k = int k - if int 20 = 0 then 1 else 0 in
    let f = bound 5 in
    let t = if int 3 = 0 then None else Some (bound 4) in
    let crash_cap = if int 3 = 0 then None else Some (bound 4) in
    let victims = if int 3 = 0 then Some (List.init (int (f + 2)) (fun _ -> obj ())) else None in
    let both make_lib make_ref =
      let lib = attempt make_lib and rf = attempt make_ref in
      same ~step:0 "create" pp_attempt (Result.map ignore lib) (Result.map ignore rf);
      match (lib, rf) with Ok lib, Ok rf -> [| (lib, rf) |] | _ -> [||]
    in
    let live =
      ref
        (match int 4 with
        | 0 -> both Budget.unlimited Budget_ref.unlimited
        | 1 -> both Budget.none Budget_ref.none
        | _ ->
            both
              (Budget.create ?victims ?max_crashes_per_proc:crash_cap ~max_faulty_objects:f
                 ~max_faults_per_object:t)
              (Budget_ref.create ?victims ?max_crashes_per_proc:crash_cap
                 ~max_faulty_objects:f ~max_faults_per_object:t))
    in
    for step = 1 to (if Array.length !live = 0 then 0 else 80) do
      let lib, rf = !live.(int (Array.length !live)) in
      let same what pp a b = same ~step what pp a b in
      match int 14 with
      | 0 ->
          let o = obj () in
          same "can_fault" Fmt.bool (Budget.can_fault lib o) (Budget_ref.can_fault rf o)
      | 1 | 2 | 3 ->
          let o = obj () in
          same "charge" pp_attempt
            (attempt (fun () -> Budget.charge lib o))
            (attempt (fun () -> Budget_ref.charge rf o))
      | 4 ->
          let o = obj () in
          same "faults_on" Fmt.int (Budget.faults_on lib o) (Budget_ref.faults_on rf o)
      | 5 ->
          same "faulty_objects" Fmt.(Dump.list Obj_id.pp) (Budget.faulty_objects lib)
            (Budget_ref.faulty_objects rf)
      | 6 -> same "total_faults" Fmt.int (Budget.total_faults lib) (Budget_ref.total_faults rf)
      | 7 ->
          let proc = proc () in
          same "can_crash" Fmt.bool (Budget.can_crash lib ~proc) (Budget_ref.can_crash rf ~proc)
      | 8 | 9 ->
          let proc = proc () in
          same "charge_crash" pp_attempt
            (attempt (fun () -> Budget.charge_crash lib ~proc))
            (attempt (fun () -> Budget_ref.charge_crash rf ~proc))
      | 10 ->
          let proc = proc () in
          same "crashes_on" Fmt.int (Budget.crashes_on lib proc) (Budget_ref.crashes_on rf proc)
      | 11 -> same "total_crashes" Fmt.int (Budget.total_crashes lib) (Budget_ref.total_crashes rf)
      | 12 -> live := Array.append !live [| (Budget.copy lib, Budget_ref.copy rf) |]
      | _ ->
          same "pp" Fmt.string (Fmt.str "%a" Budget.pp lib) (Fmt.str "%a" Budget_ref.pp rf);
          same "bounds"
            Fmt.(Dump.(pair int (pair (option int) int)))
            (Budget.f lib, (Budget.t_bound lib, Budget.crash_bound lib))
            (Budget_ref.f rf, (Budget_ref.t_bound rf, Budget_ref.crash_bound rf))
    done;
    Array.iter
      (fun (lib, rf) ->
        same ~step:max_int "final pp" Fmt.string (Fmt.str "%a" Budget.pp lib)
          (Fmt.str "%a" Budget_ref.pp rf))
      !live
  done

let suites =
  [
    ( "fault.kind",
      [
        Alcotest.test_case "string roundtrip" `Quick test_kind_string_roundtrip;
        Alcotest.test_case "responsiveness" `Quick test_kind_responsive;
        Alcotest.test_case "\xce\xa6' mapping" `Quick test_kind_phi';
      ] );
    ( "fault.semantics",
      [
        Alcotest.test_case "overriding" `Quick test_overriding_semantics;
        Alcotest.test_case "silent" `Quick test_silent_semantics;
        Alcotest.test_case "invisible" `Quick test_invisible_semantics;
        Alcotest.test_case "invisible payload required" `Quick test_invisible_payload_required;
        Alcotest.test_case "invisible payload differs" `Quick test_invisible_payload_must_differ;
        Alcotest.test_case "arbitrary" `Quick test_arbitrary_semantics;
        Alcotest.test_case "nonresponsive hangs" `Quick test_nonresponsive_hangs;
        Alcotest.test_case "non-CAS rejected" `Quick test_fault_on_non_cas;
        Alcotest.test_case "observability" `Quick test_observability;
      ] );
    ( "fault.budget",
      [
        Alcotest.test_case "basic accounting" `Quick test_budget_basic;
        Alcotest.test_case "unbounded t" `Quick test_budget_unbounded_t;
        Alcotest.test_case "victims" `Quick test_budget_victims;
        Alcotest.test_case "none" `Quick test_budget_none;
        Alcotest.test_case "over-charge raises" `Quick test_budget_charge_over;
        Alcotest.test_case "copy isolation" `Quick test_budget_copy;
        Alcotest.test_case "validation" `Quick test_budget_validation;
        Alcotest.test_case "agrees with its reference" `Quick test_budget_differential;
      ] );
    ( "fault.injector",
      [
        Alcotest.test_case "never / always" `Quick test_injector_never_always;
        Alcotest.test_case "probabilistic determinism" `Quick
          test_injector_probabilistic_deterministic;
        Alcotest.test_case "by process" `Quick test_injector_by_process;
        Alcotest.test_case "scripted" `Quick test_injector_scripted;
        Alcotest.test_case "first per object" `Quick test_injector_first_per_object;
        Alcotest.test_case "payload defaults" `Quick test_injector_payload_defaults;
      ] );
    ( "fault.data",
      [
        Alcotest.test_case "scripted" `Quick test_data_fault_scripted;
        Alcotest.test_case "probabilistic" `Quick test_data_fault_probabilistic_bounds;
      ] );
  ]
