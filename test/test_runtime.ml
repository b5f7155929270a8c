(* Tests for the multicore runtime: packed values, the faulty CAS cell,
   the parallel runner and the consensus harness. *)

module R = Ffault_runtime
module Packed = R.Packed
module Faulty_cas = R.Faulty_cas
module Runner = R.Runner
module Consensus_mc = R.Consensus_mc
module Cancel = R.Cancel
open Ffault_objects

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let packed = Alcotest.testable Packed.pp Packed.equal

(* ---- Packed ---- *)

let test_packed_basics () =
  check Alcotest.bool "bottom" true (Packed.is_bottom Packed.bottom);
  check Alcotest.bool "plain not bottom" false (Packed.is_bottom (Packed.of_int 3));
  check Alcotest.int "to_int" 3 (Packed.to_int (Packed.of_int 3));
  let s = Packed.staged ~value:7 ~stage:4 in
  check Alcotest.bool "staged" true (Packed.is_staged s);
  check Alcotest.int "stage_of" 4 (Packed.stage_of s);
  check packed "unstage" (Packed.of_int 7) (Packed.unstage s);
  check Alcotest.int "stage_of plain" (-1) (Packed.stage_of (Packed.of_int 7));
  check packed "unstage plain identity" (Packed.of_int 7) (Packed.unstage (Packed.of_int 7))

let test_packed_stage_minus_one () =
  let s = Packed.staged ~value:2 ~stage:(-1) in
  check Alcotest.int "stage -1 representable" (-1) (Packed.stage_of s);
  check Alcotest.bool "still staged-tagged" true (Packed.is_staged s);
  check Alcotest.bool "distinct from plain" false (Packed.equal s (Packed.of_int 2))

let test_packed_validation () =
  Alcotest.check_raises "negative plain" (Invalid_argument "Packed.of_int: out of range")
    (fun () -> ignore (Packed.of_int (-1)));
  Alcotest.check_raises "stage too small" (Invalid_argument "Packed.staged: stage out of range")
    (fun () -> ignore (Packed.staged ~value:0 ~stage:(-2)));
  Alcotest.check_raises "value too big" (Invalid_argument "Packed.staged: value out of range")
    (fun () -> ignore (Packed.staged ~value:(1 lsl 24) ~stage:0))

let test_packed_to_int_rejects () =
  Alcotest.check_raises "bottom" (Invalid_argument "Packed.to_int: not a plain value")
    (fun () -> ignore (Packed.to_int Packed.bottom))

let prop_packed_value_roundtrip =
  let gen =
    QCheck.Gen.oneof
      [
        QCheck.Gen.return Value.Bottom;
        QCheck.Gen.map (fun i -> Value.Int i) (QCheck.Gen.int_bound 1_000_000);
        QCheck.Gen.map2
          (fun v s -> Value.Staged { value = Value.Int v; stage = s - 1 })
          (QCheck.Gen.int_bound 10_000) (QCheck.Gen.int_bound 10_000);
      ]
  in
  QCheck.Test.make ~name:"Packed <-> Value roundtrip" ~count:300
    (QCheck.make ~print:Value.to_string gen) (fun v ->
      match Packed.of_value v with
      | Some p -> Value.equal (Packed.to_value p) v
      | None -> false)

let test_packed_of_value_rejects () =
  check Alcotest.bool "string" true (Packed.of_value (Value.Str "x") = None);
  check Alcotest.bool "negative int" true (Packed.of_value (Value.Int (-1)) = None)

(* ---- Faulty_cas ---- *)

let test_cas_correct_path () =
  let c = Faulty_cas.make ~init:Packed.bottom () in
  let old = Faulty_cas.cas c ~expected:Packed.bottom ~desired:(Packed.of_int 5) in
  check packed "old is bottom" Packed.bottom old;
  check packed "written" (Packed.of_int 5) (Faulty_cas.peek c);
  let old = Faulty_cas.cas c ~expected:Packed.bottom ~desired:(Packed.of_int 9) in
  check packed "failed cas returns current" (Packed.of_int 5) old;
  check packed "unchanged" (Packed.of_int 5) (Faulty_cas.peek c);
  check Alcotest.int "no faults" 0 (Faulty_cas.observable_faults c)

let test_cas_fault_path () =
  let c = Faulty_cas.make ~plan:Faulty_cas.plan_always ~init:(Packed.of_int 1) () in
  let old = Faulty_cas.cas c ~expected:Packed.bottom ~desired:(Packed.of_int 5) in
  check packed "truthful old" (Packed.of_int 1) old;
  check packed "overridden" (Packed.of_int 5) (Faulty_cas.peek c);
  check Alcotest.int "one observable fault" 1 (Faulty_cas.observable_faults c)

let test_cas_unobservable_refunded () =
  (* The comparison would succeed anyway: injecting changes nothing and
     must not be charged. *)
  let c = Faulty_cas.make ~plan:Faulty_cas.plan_always ~t_bound:5 ~init:Packed.bottom () in
  ignore (Faulty_cas.cas c ~expected:Packed.bottom ~desired:(Packed.of_int 5));
  check Alcotest.int "refunded" 0 (Faulty_cas.observable_faults c)

let test_cas_t_bound_cap () =
  let c = Faulty_cas.make ~plan:Faulty_cas.plan_always ~t_bound:2 ~init:(Packed.of_int 1) () in
  for k = 0 to 9 do
    ignore (Faulty_cas.cas c ~expected:Packed.bottom ~desired:(Packed.of_int (100 + k)))
  done;
  check Alcotest.int "capped at t" 2 (Faulty_cas.observable_faults c);
  check Alcotest.int "ops counted" 10 (Faulty_cas.ops_performed c)

let test_plans () =
  check Alcotest.bool "never" false (Faulty_cas.plan_never.Faulty_cas.fire ~op_index:0);
  check Alcotest.bool "always" true (Faulty_cas.plan_always.Faulty_cas.fire ~op_index:9);
  let p = Faulty_cas.plan_first_n 2 in
  check Alcotest.bool "first_n yes" true (p.Faulty_cas.fire ~op_index:1);
  check Alcotest.bool "first_n no" false (p.Faulty_cas.fire ~op_index:2);
  let p = Faulty_cas.plan_every_kth 3 in
  check Alcotest.bool "kth 0" true (p.Faulty_cas.fire ~op_index:0);
  check Alcotest.bool "kth 1" false (p.Faulty_cas.fire ~op_index:1);
  check Alcotest.bool "kth 3" true (p.Faulty_cas.fire ~op_index:3);
  Alcotest.check_raises "kth validation" (Invalid_argument "Faulty_cas.plan_every_kth: k < 1")
    (fun () -> ignore (Faulty_cas.plan_every_kth 0))

let test_plan_probabilistic_deterministic () =
  let a = Faulty_cas.plan_probabilistic ~seed:5L ~p:0.5 in
  let b = Faulty_cas.plan_probabilistic ~seed:5L ~p:0.5 in
  for k = 0 to 100 do
    check Alcotest.bool "same decisions" (a.Faulty_cas.fire ~op_index:k)
      (b.Faulty_cas.fire ~op_index:k)
  done

let test_plan_probabilistic_rate () =
  let p = Faulty_cas.plan_probabilistic ~seed:11L ~p:0.25 in
  let hits = ref 0 in
  let n = 20_000 in
  for k = 0 to n - 1 do
    if p.Faulty_cas.fire ~op_index:k then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.25" true (rate > 0.22 && rate < 0.28);
  (* p = 1 is certainty, not an overflowed threshold that never fires *)
  let certain = Faulty_cas.plan_probabilistic ~seed:11L ~p:1.0 in
  for k = 0 to n - 1 do
    if not (certain.Faulty_cas.fire ~op_index:k) then
      Alcotest.failf "p = 1 skipped op %d" k
  done;
  List.iter
    (fun p ->
      match Faulty_cas.plan_probabilistic ~seed:11L ~p with
      | _ -> Alcotest.failf "p = %g must be rejected" p
      | exception Invalid_argument _ -> ())
    [ 1.5; Float.nan ]

(* ---- Runner ---- *)

let test_runner_results_in_order () =
  let results = Runner.run_parallel ~domains:4 (fun i -> i * 10) in
  check (Alcotest.list Alcotest.int) "ordered" [ 0; 10; 20; 30 ] (Array.to_list results)

let test_runner_single_domain () =
  let results = Runner.run_parallel ~domains:1 (fun i -> i + 1) in
  check (Alcotest.list Alcotest.int) "one" [ 1 ] (Array.to_list results)

let test_runner_validation () =
  Alcotest.check_raises "domains < 1" (Invalid_argument "Runner.run_parallel: domains < 1")
    (fun () -> ignore (Runner.run_parallel ~domains:0 (fun i -> i)))

let test_runner_parallel_increments () =
  let counter = Atomic.make 0 in
  let per = 10_000 in
  ignore
    (Runner.run_parallel ~domains:4 (fun _ ->
         for _ = 1 to per do
           Atomic.incr counter
         done));
  check Alcotest.int "no lost updates" (4 * per) (Atomic.get counter)

let test_runner_exception_propagates () =
  (* A spawned worker's exception must surface on join, not vanish. *)
  match Runner.run_parallel ~domains:2 (fun i -> if i = 1 then failwith "boom" else i) with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure m -> check Alcotest.string "worker failure surfaced" "boom" m

(* ---- Runner.run_tasks ---- *)

let test_run_tasks_covers_all () =
  let consumed = Array.make 100 (-1) in
  Runner.run_tasks ~chunk:7 ~domains:4 ~total:100
    ~worker:(fun i -> i * 3)
    ~consume:(fun i r ->
      if consumed.(i) <> -1 then Alcotest.fail (Fmt.str "task %d consumed twice" i);
      consumed.(i) <- r)
    ();
  Array.iteri (fun i r -> check Alcotest.int (Fmt.str "result %d" i) (i * 3) r) consumed

let test_run_tasks_single_domain_in_order () =
  let seen = ref [] in
  Runner.run_tasks ~domains:1 ~total:5 ~worker:(fun i -> 10 * i)
    ~consume:(fun i r -> seen := (i, r) :: !seen)
    ();
  check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "in order"
    [ (0, 0); (1, 10); (2, 20); (3, 30); (4, 40) ]
    (List.rev !seen)

let test_run_tasks_empty_and_validation () =
  Runner.run_tasks ~domains:4 ~total:0 ~worker:(fun _ -> Alcotest.fail "no tasks to run")
    ~consume:(fun _ _ -> Alcotest.fail "nothing to consume")
    ();
  Alcotest.check_raises "domains < 1" (Invalid_argument "Runner.run_tasks: domains < 1")
    (fun () -> Runner.run_tasks ~domains:0 ~total:1 ~worker:ignore ~consume:(fun _ _ -> ()) ());
  Alcotest.check_raises "chunk < 1" (Invalid_argument "Runner.run_tasks: chunk < 1") (fun () ->
      Runner.run_tasks ~chunk:0 ~domains:1 ~total:1 ~worker:ignore ~consume:(fun _ _ -> ()) ());
  Alcotest.check_raises "total < 0" (Invalid_argument "Runner.run_tasks: total < 0") (fun () ->
      Runner.run_tasks ~domains:1 ~total:(-1) ~worker:ignore ~consume:(fun _ _ -> ()) ())

let test_run_tasks_worker_exception () =
  match
    Runner.run_tasks ~chunk:4 ~domains:4 ~total:64
      ~worker:(fun i -> if i = 13 then failwith "task boom" else i)
      ~consume:(fun _ _ -> ())
      ()
  with
  | () -> Alcotest.fail "expected the task exception to propagate"
  | exception Failure m -> check Alcotest.string "task failure surfaced" "task boom" m

let test_run_tasks_consume_serialized () =
  (* consume runs under one mutex: unsynchronized mutation must be safe. *)
  let sum = ref 0 in
  Runner.run_tasks ~chunk:3 ~domains:4 ~total:1000 ~worker:(fun i -> i)
    ~consume:(fun _ r -> sum := !sum + r)
    ();
  check Alcotest.int "no lost consume" (999 * 1000 / 2) !sum

let test_run_tasks_fail_fast () =
  (* The first exception poisons the queue: the surviving domain must
     stop claiming chunks instead of draining the remaining ~10^6 tasks.
     The margin is generous — without fail-fast, every task executes. *)
  let executed = Atomic.make 0 in
  let total = 1_000_000 in
  (match
     Runner.run_tasks ~chunk:1 ~domains:2 ~total
       ~worker:(fun i ->
         ignore (Atomic.fetch_and_add executed 1);
         if i = 0 then failwith "poison";
         i)
       ~consume:(fun _ _ -> ())
       ()
   with
  | () -> Alcotest.fail "expected the poison exception"
  | exception Failure m -> check Alcotest.string "first exception surfaced" "poison" m);
  check Alcotest.bool
    (Fmt.str "siblings stopped promptly (%d executed)" (Atomic.get executed))
    true
    (Atomic.get executed < total / 10)

(* ---- Cancel ---- *)

(* A token whose deadline, 100 ns after creation on a fake clock, is
   reached when [t] is set to 100. *)
let fake_deadline_token () =
  let t = ref 0 in
  (t, Cancel.create ~deadline_ns:100 ~now:(fun () -> !t) ())

let raised_reason c =
  match Cancel.check c with () -> None | exception Cancel.Cancelled r -> Some r

let test_cancel_first_reason_wins () =
  let t, c = fake_deadline_token () in
  check Alcotest.bool "fresh token untripped" false (Cancel.cancelled c);
  check Alcotest.(option string) "check passes before the deadline" None (raised_reason c);
  t := 100;
  check Alcotest.bool "tripped" true (Cancel.cancelled c);
  check Alcotest.(option string) "check carries the reason" (Some "deadline exceeded")
    (raised_reason c);
  t := 1_000;
  check Alcotest.(option string) "a later poll keeps the reason" (Some "deadline exceeded")
    (raised_reason c)

let test_cancel_deadline_fake_clock () =
  let t, c = fake_deadline_token () in
  check Alcotest.bool "before the deadline" false (Cancel.cancelled c);
  t := 99;
  check Alcotest.bool "still before" false (Cancel.cancelled c);
  t := 100;
  check Alcotest.bool "the deadline instant trips (inclusive)" true (Cancel.cancelled c);
  (match raised_reason c with
  | Some r ->
      check Alcotest.bool "reason names the deadline" true
        (String.length r >= 8 && String.sub r 0 8 = "deadline")
  | None -> Alcotest.fail "tripped token carries no reason");
  (* sticky: the clock going backwards cannot untrip it *)
  t := 0;
  check Alcotest.bool "sticky" true (Cancel.cancelled c)

let test_cancel_never_is_inert () =
  check Alcotest.bool "never untripped" false (Cancel.cancelled Cancel.never);
  check Alcotest.(option string) "check on never passes" None (raised_reason Cancel.never);
  let t, c = fake_deadline_token () in
  t := 100;
  check Alcotest.bool "another token trips" true (Cancel.cancelled c);
  check Alcotest.bool "never still untripped" false (Cancel.cancelled Cancel.never)

let test_cas_observes_tripped_token () =
  let t, cancel = fake_deadline_token () in
  let cell = Faulty_cas.make ~cancel ~init:(Packed.of_int 1) () in
  t := 100;
  match Faulty_cas.cas cell ~expected:(Packed.of_int 1) ~desired:(Packed.of_int 2) with
  | _ -> Alcotest.fail "cas on a tripped token must raise"
  | exception Cancel.Cancelled r -> check Alcotest.string "reason" "deadline exceeded" r

(* ---- Consensus_mc ---- *)

let test_mc_fault_free_all_protocols () =
  List.iter
    (fun protocol ->
      let cfg = Consensus_mc.config ~n_domains:4 protocol in
      let r = Consensus_mc.execute cfg in
      check Alcotest.bool
        (Fmt.str "%a agreed" Consensus_mc.pp_protocol protocol)
        true
        (r.Consensus_mc.agreed && r.Consensus_mc.valid))
    [
      Consensus_mc.Single_cas;
      Consensus_mc.Sweep 3;
      Consensus_mc.Staged { f = 2; t = 1 };
    ]

let test_mc_staged_under_faults () =
  for k = 1 to 50 do
    let cfg =
      Consensus_mc.config
        ~plan_for:(fun o ->
          Faulty_cas.plan_probabilistic ~seed:(Int64.of_int ((k * 131) + o)) ~p:0.4)
        ~n_domains:4
        (Consensus_mc.Staged { f = 3; t = 2 })
    in
    let r = Consensus_mc.execute cfg in
    check Alcotest.bool "agreed and valid" true (r.Consensus_mc.agreed && r.Consensus_mc.valid);
    Array.iter
      (fun faults -> check Alcotest.bool "within t" true (faults <= 2))
      r.Consensus_mc.faults_per_object
  done

let test_mc_naive_breaks () =
  (* Single CAS with always-faults among 4 domains: some run must
     disagree (the theory says n > 2 is unsafe; with the barrier start
     the race is essentially guaranteed across 50 runs). *)
  let broken = ref false in
  for k = 1 to 50 do
    ignore k;
    let cfg =
      Consensus_mc.config
        ~plan_for:(fun _ -> Faulty_cas.plan_always)
        ~t_bound:10 ~n_domains:4 Consensus_mc.Single_cas
    in
    let r = Consensus_mc.execute cfg in
    if not (r.Consensus_mc.agreed && r.Consensus_mc.valid) then broken := true
  done;
  check Alcotest.bool "naive protocol broke at least once" true !broken

let test_mc_config_validation () =
  Alcotest.check_raises "inputs mismatch"
    (Invalid_argument "Consensus_mc.config: inputs count differs from n_domains") (fun () ->
      ignore (Consensus_mc.config ~inputs:[| 1 |] ~n_domains:2 Consensus_mc.Single_cas));
  (match
     Consensus_mc.config ~style:Faulty_cas.Hang ~n_domains:2 Consensus_mc.Single_cas
   with
  | _ -> Alcotest.fail "Hang without a deadline must be rejected"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun protocol ->
      match Consensus_mc.config ~n_domains:2 protocol with
      | _ -> Alcotest.failf "%a must be rejected" Consensus_mc.pp_protocol protocol
      | exception Invalid_argument _ -> ())
    [
      Consensus_mc.Sweep 0;
      Consensus_mc.Staged { f = 0; t = 1 };
      Consensus_mc.Staged { f = 2; t = 0 };
    ];
  match Consensus_mc.config ~deadline_s:0.0 ~n_domains:2 Consensus_mc.Single_cas with
  | _ -> Alcotest.fail "non-positive deadline must be rejected"
  | exception Invalid_argument _ -> ()

let test_mc_hang_times_out () =
  (* Every fault hangs its CAS forever; the deadline is the only exit.
     The run must terminate, report the stuck domains as Timed_out, and
     never manufacture a verdict from them. *)
  let cfg =
    Consensus_mc.config
      ~plan_for:(fun _ -> Faulty_cas.plan_always)
      ~style:Faulty_cas.Hang ~deadline_s:0.3 ~n_domains:2
      (Consensus_mc.Staged { f = 1; t = 1 })
  in
  let started = Unix.gettimeofday () in
  let r = Consensus_mc.execute cfg in
  let elapsed = Unix.gettimeofday () -. started in
  check Alcotest.bool "some domain timed out" true (r.Consensus_mc.timeouts > 0);
  check Alcotest.bool "terminated near the deadline" true (elapsed < 10.0);
  check Alcotest.int "timeouts agree with outcomes" r.Consensus_mc.timeouts
    (Array.fold_left
       (fun acc -> function Consensus_mc.Timed_out _ -> acc + 1 | Consensus_mc.Decided _ -> acc)
       0 r.Consensus_mc.outcomes);
  (* agreed/valid quantify over the decided subset only *)
  check Alcotest.bool "no verdict from truncated domains" true
    (r.Consensus_mc.agreed && r.Consensus_mc.valid);
  Array.iter
    (function
      | Consensus_mc.Timed_out reason ->
          check Alcotest.string "carries the token's reason" "deadline exceeded" reason
      | Consensus_mc.Decided _ -> ())
    r.Consensus_mc.outcomes

let suites =
  [
    ( "runtime.packed",
      [
        Alcotest.test_case "basics" `Quick test_packed_basics;
        Alcotest.test_case "stage -1" `Quick test_packed_stage_minus_one;
        Alcotest.test_case "validation" `Quick test_packed_validation;
        Alcotest.test_case "to_int rejects" `Quick test_packed_to_int_rejects;
        Alcotest.test_case "of_value rejects" `Quick test_packed_of_value_rejects;
        qcheck prop_packed_value_roundtrip;
      ] );
    ( "runtime.faulty_cas",
      [
        Alcotest.test_case "correct path" `Quick test_cas_correct_path;
        Alcotest.test_case "fault path" `Quick test_cas_fault_path;
        Alcotest.test_case "unobservable refunded" `Quick test_cas_unobservable_refunded;
        Alcotest.test_case "t bound cap" `Quick test_cas_t_bound_cap;
        Alcotest.test_case "plans" `Quick test_plans;
        Alcotest.test_case "probabilistic determinism" `Quick
          test_plan_probabilistic_deterministic;
        Alcotest.test_case "probabilistic rate" `Quick test_plan_probabilistic_rate;
      ] );
    ( "runtime.runner",
      [
        Alcotest.test_case "ordered results" `Quick test_runner_results_in_order;
        Alcotest.test_case "single domain" `Quick test_runner_single_domain;
        Alcotest.test_case "validation" `Quick test_runner_validation;
        Alcotest.test_case "parallel increments" `Quick test_runner_parallel_increments;
        Alcotest.test_case "exception propagates" `Quick test_runner_exception_propagates;
        Alcotest.test_case "tasks cover all" `Quick test_run_tasks_covers_all;
        Alcotest.test_case "tasks single domain order" `Quick
          test_run_tasks_single_domain_in_order;
        Alcotest.test_case "tasks empty + validation" `Quick test_run_tasks_empty_and_validation;
        Alcotest.test_case "tasks worker exception" `Quick test_run_tasks_worker_exception;
        Alcotest.test_case "tasks consume serialized" `Quick test_run_tasks_consume_serialized;
        Alcotest.test_case "tasks fail fast" `Quick test_run_tasks_fail_fast;
      ] );
    ( "runtime.cancel",
      [
        Alcotest.test_case "first reason wins" `Quick test_cancel_first_reason_wins;
        Alcotest.test_case "deadline on fake clock" `Quick test_cancel_deadline_fake_clock;
        Alcotest.test_case "never is inert" `Quick test_cancel_never_is_inert;
        Alcotest.test_case "cas observes tripped token" `Quick test_cas_observes_tripped_token;
      ] );
    ( "runtime.consensus",
      [
        Alcotest.test_case "fault-free protocols" `Quick test_mc_fault_free_all_protocols;
        Alcotest.test_case "staged under faults" `Slow test_mc_staged_under_faults;
        Alcotest.test_case "naive breaks" `Slow test_mc_naive_breaks;
        Alcotest.test_case "config validation" `Quick test_mc_config_validation;
        Alcotest.test_case "hang times out" `Quick test_mc_hang_times_out;
      ] );
  ]
