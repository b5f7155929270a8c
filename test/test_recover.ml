(* Tests for the crash-restart subsystem: crash-schedule determinism
   (plan level and full-campaign journal level), the
   recoverable-linearizability step checker and its trace audit, crash
   attribution, the Budget.copy crash-charge snapshot contract, and
   resume-after-kill of a crash-axis campaign. *)

module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Pool = Campaign.Pool
module Recover = Ffault_recover
module Crash_plan = Recover.Crash_plan
module Persistence = Recover.Persistence
module Budget = Ffault_fault.Budget
module Fault_kind = Ffault_fault.Fault_kind
module Hoare = Ffault_hoare
module Triple = Hoare.Triple
module Recover_spec = Hoare.Recover_spec
module Classify = Hoare.Classify
module Sim = Ffault_sim
module Trace = Sim.Trace
module World = Sim.World
open Ffault_objects

let check = Alcotest.check

let tmp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "ffault-recover-test-%d-%d" (Unix.getpid ()) !n)
    in
    Checkpoint.mkdir_p dir;
    dir

(* A crash-axis spec over the deliberately non-recoverable baseline: at
   f = 0 every failure it produces is a pure crash artifact, which keeps
   the determinism comparison meaningful (both runs must reproduce the
   same violations, not just the same passes). *)
let crashy_spec ?(trials = 12) ?(name = "crashy") () =
  Spec.v ~name ~protocol:"naive-tas" ~f:[ 0 ] ~n:[ 2 ] ~rates:[ 0.0 ] ~crashes:[ 1 ]
    ~crash_rates:[ 0.4 ] ~persistence:[ Persistence.Persist_all ] ~trials ~seed:0xC4A5L ()

(* ---- crash-plan determinism ---- *)

let test_plan_determinism () =
  let decisions plan =
    List.concat_map
      (fun proc -> List.map (fun k -> Crash_plan.decide plan ~proc ~k) [ 0; 1; 2; 3; 4; 5; 6; 7 ])
      [ 0; 1; 2; 3 ]
  in
  let a = decisions (Crash_plan.make ~seed:7L ~rate:0.5) in
  let b = decisions (Crash_plan.make ~seed:7L ~rate:0.5) in
  check Alcotest.bool "same seed, same schedule" true (a = b);
  let c = decisions (Crash_plan.make ~seed:8L ~rate:0.5) in
  check Alcotest.bool "different seed, different schedule" true (a <> c);
  check Alcotest.bool "some crashes proposed at rate 0.5" true
    (List.exists Option.is_some a);
  let never = decisions (Crash_plan.make ~seed:7L ~rate:0.0) in
  check Alcotest.bool "rate 0 proposes nothing" true (List.for_all Option.is_none never)

let test_plan_streams_independent () =
  (* Two processes never share an RNG stream: process 0's schedule is
     unchanged by what process 1 draws (pure-function plans make this
     trivially true; the test pins the keying so a refactor to a shared
     sequential stream would be caught). *)
  let plan = Crash_plan.make ~seed:42L ~rate:0.7 in
  let p0 = List.map (fun k -> Crash_plan.decide plan ~proc:0 ~k) [ 0; 1; 2; 3 ] in
  (* interleave queries to proc 1 between re-queries of proc 0 *)
  let p0' =
    List.map
      (fun k ->
        ignore (Crash_plan.decide plan ~proc:1 ~k);
        Crash_plan.decide plan ~proc:0 ~k)
      [ 0; 1; 2; 3 ]
  in
  check Alcotest.bool "proc 0 schedule independent of proc 1 queries" true (p0 = p0')

(* Every decision of 64 plans (the edge seeds and 60 hashed ones) at
   four rates, for processes 0..3 and operations 0..63, one byte each.
   Pinned across commits: a crash cell's schedule is a pure function of
   its seed. *)
let test_plan_digest () =
  let seeds =
    [ 0L; -1L; Int64.min_int; Int64.max_int ]
    @ List.init 60 (fun i -> Ffault_prng.Splitmix.hash (Int64.of_int i))
  in
  let b = Buffer.create (64 * 4 * 4 * 64) in
  List.iter
    (fun seed ->
      List.iter
        (fun rate ->
          let plan = Crash_plan.make ~seed ~rate in
          for proc = 0 to 3 do
            for k = 0 to 63 do
              Buffer.add_char b
                (match Crash_plan.decide plan ~proc ~k with
                | None -> '.'
                | Some Crash_plan.Vanish -> 'v'
                | Some Crash_plan.Linearize -> 'l')
            done
          done)
        [ 0.0; 0.2; 0.4; 1.0 ])
    seeds;
  check Alcotest.string "crash-plan decisions" "699dcc219b2177c3c947d1a835b48a2d"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* ---- campaign-level determinism: same seed => identical journal ---- *)

let run_records spec =
  let records = ref [] in
  let _ = Pool.run_trials ~domains:1 ~on_record:(fun r -> records := r :: !records) spec in
  List.sort (fun a b -> compare a.Journal.trial b.Journal.trial) !records

let normalize r = { r with Journal.wall_us = 0 }

let test_campaign_determinism () =
  let spec = crashy_spec () in
  let a = List.map normalize (run_records spec) in
  let b = List.map normalize (run_records spec) in
  check Alcotest.int "all trials journaled" (Grid.total_trials spec) (List.length a);
  (* byte-identical journals: compare the rendered JSONL lines *)
  let lines rs = List.map Journal.to_line rs in
  check Alcotest.(list string) "same seed, byte-identical journal" (lines a) (lines b);
  check Alcotest.bool "the baseline actually fails under crashes" true
    (List.exists (fun r -> not r.Journal.ok) a);
  check Alcotest.bool "failures are crash-charged" true
    (List.for_all (fun r -> r.Journal.ok || r.Journal.crash_faults > 0) a)

let test_crash_seed_rerolls () =
  (* --crash-seed varies the crash schedule without touching the fault
     schedule: outcomes must differ somewhere across the sweep. *)
  let spec = crashy_spec ~name:"crashy-a" () in
  let spec' = { spec with Spec.name = "crashy-b"; crash_seed = 99L } in
  let sig_of rs = List.map (fun r -> (r.Journal.ok, r.Journal.crash_faults)) rs in
  check Alcotest.bool "crash-seed re-rolls the schedule" true
    (sig_of (run_records spec) <> sig_of (run_records spec'))

(* ---- recoverable-linearizability checker ---- *)

let cas_step ~post =
  {
    Triple.kind = Kind.Cas_only;
    pre_state = Value.Bottom;
    op = Op.Cas { expected = Value.Bottom; desired = Value.Int 1 };
    post_state = post;
    response = Value.Bottom;
  }

let test_recover_spec_shapes () =
  let vanish = cas_step ~post:Value.Bottom in
  let linearize = cas_step ~post:(Value.Int 1) in
  let torn = cas_step ~post:(Value.Int 2) in
  check Alcotest.bool "vanished accepted" true (Recover_spec.vanished vanish);
  check Alcotest.bool "vanished is not linearized" false (Recover_spec.linearized vanish);
  check Alcotest.bool "linearized accepted" true (Recover_spec.linearized linearize);
  check Alcotest.bool "linearized did not vanish" false (Recover_spec.vanished linearize);
  check Alcotest.bool "legal = vanish" true (Recover_spec.legal vanish);
  check Alcotest.bool "legal = linearize" true (Recover_spec.legal linearize);
  check Alcotest.bool "half-applied effect rejected" false (Recover_spec.legal torn)

let crash_event ~effect ~post =
  Trace.Proc_crash
    {
      step = 1;
      proc = 0;
      obj = Obj_id.of_int 0;
      op = Op.Cas { expected = Value.Bottom; desired = Value.Int 1 };
      pre_state = Value.Bottom;
      post_state = post;
      effect;
    }

let test_audit_crashed_steps () =
  let world = World.cas_world ~n_procs:2 ~objects:1 in
  let ok_trace =
    [
      crash_event ~effect:Crash_plan.Vanish ~post:Value.Bottom;
      Trace.Restart { step = 2; proc = 0 };
      crash_event ~effect:Crash_plan.Linearize ~post:(Value.Int 1);
      Trace.Restart { step = 4; proc = 0 };
    ]
  in
  check Alcotest.int "legal crashed steps audit clean" 0
    (List.length (Trace.audit ~world ok_trace));
  (* A fabricated decided-value flip: the crash is labeled Linearize but
     the state shows a different value than the operation installs. *)
  let flipped = [ crash_event ~effect:Crash_plan.Linearize ~post:(Value.Int 2) ] in
  check Alcotest.int "value flip rejected" 1 (List.length (Trace.audit ~world flipped));
  (* Mislabeling: claims Vanish but the effect landed. *)
  let mislabeled = [ crash_event ~effect:Crash_plan.Vanish ~post:(Value.Int 1) ] in
  check Alcotest.int "mislabeled vanish rejected" 1
    (List.length (Trace.audit ~world mislabeled))

let test_attribution () =
  let attr = Alcotest.testable Classify.pp_attribution Classify.equal_attribution in
  check attr "no faults" Classify.No_fault (Classify.attribute ~crashes:0 ~primitive:0);
  check attr "crash only" Classify.Crash_only (Classify.attribute ~crashes:2 ~primitive:0);
  check attr "primitive only" Classify.Primitive_only (Classify.attribute ~crashes:0 ~primitive:1);
  check attr "mixed" Classify.Mixed (Classify.attribute ~crashes:1 ~primitive:3)

(* ---- Budget.copy and crash charging ---- *)

let test_budget_copy_crash_isolation () =
  let b = Budget.create ~max_crashes_per_proc:2 ~max_faulty_objects:1 ~max_faults_per_object:None () in
  Budget.charge_crash b ~proc:0;
  let snapshot = Budget.copy b in
  (* Replaying the crash after a restore charges the snapshot's own
     table; the original must be unaffected (no shared Hashtbl). *)
  Budget.charge_crash snapshot ~proc:0;
  Budget.charge_crash snapshot ~proc:1;
  check Alcotest.int "original proc 0 unchanged" 1 (Budget.crashes_on b 0);
  check Alcotest.int "original proc 1 unchanged" 0 (Budget.crashes_on b 1);
  check Alcotest.int "snapshot charged independently" 2 (Budget.crashes_on snapshot 0);
  check Alcotest.bool "snapshot proc 0 exhausted" false (Budget.can_crash snapshot ~proc:0);
  check Alcotest.bool "original proc 0 still has headroom" true (Budget.can_crash b ~proc:0);
  check Alcotest.int "totals diverge" 1 (Budget.total_crashes b);
  check Alcotest.int "snapshot total" 3 (Budget.total_crashes snapshot)

(* ---- resume after kill, with crash axes live ---- *)

let test_crash_campaign_resume_after_kill () =
  let root = tmp_root () in
  let spec = crashy_spec ~trials:10 ~name:"crashy-resume" () in
  let total = Grid.total_trials spec in
  (match Pool.run_dir ~domains:2 ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s -> check Alcotest.int "fresh run executes all" total s.Pool.executed);
  let dir = Checkpoint.campaign_dir ~root spec in
  let path = Checkpoint.journal_path ~dir in
  let keep =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filteri (fun i _ -> i < 4)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) keep);
  (match Pool.run_dir ~domains:2 ~resume:true ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.int "journaled trials skipped" 4 s.Pool.skipped;
      check Alcotest.int "only the rest executed" (total - 4) s.Pool.executed);
  let records = Journal.load ~path in
  check Alcotest.int "journal complete" total (List.length records);
  let ids = List.sort_uniq compare (List.map (fun r -> r.Journal.trial) records) in
  check Alcotest.int "every trial exactly once" total (List.length ids);
  check Alcotest.bool "crash axes survived the round trip" true
    (List.for_all
       (fun r ->
         r.Journal.cell.Grid.crashes = 1
         && r.Journal.cell.Grid.crash_rate = 0.4
         && Persistence.equal r.Journal.cell.Grid.persistence Persistence.Persist_all)
       records)

let suites =
  [
    ( "recover",
      [
        Alcotest.test_case "crash-plan determinism" `Quick test_plan_determinism;
        Alcotest.test_case "crash-plan stream independence" `Quick test_plan_streams_independent;
        Alcotest.test_case "crash-plan decision digest" `Quick test_plan_digest;
        Alcotest.test_case "campaign journal determinism" `Slow test_campaign_determinism;
        Alcotest.test_case "crash-seed re-rolls schedules" `Slow test_crash_seed_rerolls;
        Alcotest.test_case "recoverable-lin step shapes" `Quick test_recover_spec_shapes;
        Alcotest.test_case "audit of crashed steps" `Quick test_audit_crashed_steps;
        Alcotest.test_case "crash attribution" `Quick test_attribution;
        Alcotest.test_case "budget copy isolates crash charges" `Quick
          test_budget_copy_crash_isolation;
        Alcotest.test_case "crash-axis resume after kill" `Slow
          test_crash_campaign_resume_after_kill;
      ] );
  ]
