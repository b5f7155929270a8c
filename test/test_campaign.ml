(* Tests for the campaign orchestrator: JSON codec, spec parsing, grid
   determinism, recorded trials (replay + shrink), journal durability,
   the domain pool, resume, and report aggregation/diffing. *)

module Campaign = Ffault_campaign
module Json = Campaign.Json
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Shrink_on_fail = Campaign.Shrink_on_fail
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Pool = Campaign.Pool
module Report = Campaign.Report
module Live = Campaign.Live
module Check = Ffault_verify.Consensus_check
module Engine = Ffault_sim.Engine
module Trace = Ffault_sim.Trace
module Fault_kind = Ffault_fault.Fault_kind

let check = Alcotest.check

(* A cell that genuinely violates consensus often: the unprotected
   single-CAS protocol at n = 3 under a high overriding rate (E12's
   curve 1 measures ~0.87 at p = 0.9). *)
let failing_spec ?(trials = 40) ?(name = "failing") () =
  Spec.v ~name ~protocol:"herlihy" ~f:[ 1 ] ~n:[ 3 ] ~rates:[ 0.9 ] ~trials ~seed:0xBADL ()

(* A healthy grid: fig3 inside its envelope never fails. *)
let healthy_spec ?(trials = 10) ?(name = "healthy") () =
  Spec.v ~name ~protocol:"fig3" ~f:[ 1; 2 ] ~t:[ Some 1 ] ~n:[ 3 ] ~rates:[ 0.3; 0.6 ]
    ~trials ~seed:0x600DL ()

let tmp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "ffault-campaign-test-%d-%d" (Unix.getpid ()) !n)
    in
    Checkpoint.mkdir_p dir;
    dir

(* ---- Json ---- *)

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 0.25;
      Json.Str "with \"quotes\", \\ and \n newline";
      Json.List [ Json.Int 1; Json.Null; Json.Str "x" ];
      Json.Obj [ ("a", Json.Int 1); ("b", Json.List []); ("c", Json.Obj []) ];
    ]
  in
  List.iter
    (fun v ->
      match Json.of_string (Json.to_string v) with
      | Ok v' -> check Alcotest.bool (Json.to_string v) true (v = v')
      | Error m -> Alcotest.fail m)
    values

let test_json_single_line () =
  let v = Json.Obj [ ("s", Json.Str "two\nlines"); ("l", Json.List [ Json.Str "\t" ]) ] in
  check Alcotest.bool "JSONL-safe" false (String.contains (Json.to_string v) '\n')

let test_json_errors () =
  List.iter
    (fun s ->
      match Json.of_string s with
      | Ok _ -> Alcotest.fail (Fmt.str "accepted %S" s)
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "1 2"; "\"unterminated"; "{\"a\" 1}" ]

let test_json_accessors () =
  let v = Json.Obj [ ("n", Json.Int 3); ("r", Json.Float 0.5) ] in
  check (Alcotest.option Alcotest.int) "member int" (Some 3)
    (Option.bind (Json.member "n" v) Json.get_int);
  (* ints coerce to float where a float is expected (rates parse as 0 or 1) *)
  check (Alcotest.option (Alcotest.float 1e-9)) "int as float" (Some 3.0)
    (Option.bind (Json.member "n" v) Json.get_float);
  check (Alcotest.option Alcotest.int) "missing member" None
    (Option.bind (Json.member "zzz" v) Json.get_int)

(* ---- Spec ---- *)

let test_spec_axis_parsers () =
  check
    (Alcotest.result (Alcotest.list Alcotest.int) Alcotest.string)
    "ints + ranges" (Ok [ 1; 4; 5; 6; 9 ])
    (Spec.ints_of_string "1, 4..6, 9");
  check Alcotest.bool "bad range rejected" true
    (Result.is_error (Spec.ints_of_string "5..2"));
  check
    (Alcotest.result (Alcotest.list (Alcotest.option Alcotest.int)) Alcotest.string)
    "t values" (Ok [ Some 1; None; Some 3 ])
    (Spec.t_values_of_string "1, unbounded, 3");
  check Alcotest.bool "kinds parse" true
    (Spec.kinds_of_string "overriding, silent" = Ok [ Fault_kind.Overriding; Fault_kind.Silent ]);
  check Alcotest.bool "unknown kind rejected" true
    (Result.is_error (Spec.kinds_of_string "gremlin"))

let test_spec_text_format () =
  let text =
    "# an f x t sweep\n\
     name = sweep-test\n\
     protocol = fig2\n\
     f = 1..2   # inline comment\n\
     t = 1, unbounded\n\
     n = 3\n\
     kinds = overriding\n\
     rates = 0.25, 0.75\n\
     trials = 7\n\
     seed = 99\n"
  in
  match Spec.parse text with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.string "name" "sweep-test" s.Spec.name;
      check (Alcotest.list Alcotest.int) "f" [ 1; 2 ] s.Spec.f_values;
      check
        (Alcotest.list (Alcotest.option Alcotest.int))
        "t" [ Some 1; None ] s.Spec.t_values;
      check Alcotest.int "trials" 7 s.Spec.trials;
      check Alcotest.int64 "seed" 99L s.Spec.seed

let test_spec_text_errors () =
  List.iter
    (fun text ->
      match Spec.parse text with
      | Ok _ -> Alcotest.fail (Fmt.str "accepted %S" text)
      | Error _ -> ())
    [
      "f = 1\n" (* missing protocol *);
      "protocol = fig3\nbogus_key = 1\n";
      "protocol = fig3\nno equals sign here\n";
      "protocol = marsian\n";
      "protocol = fig3\nrates = 1.5\n";
      "protocol = fig3\ntrials = 0\n";
    ]

(* A rate outside [0, 1] is rejected, NaN included: NaN fails both
   comparisons of a naive range test and would reach the manifest and
   every journal line as a bare [nan], which no reader parses. -0.0 is
   in range. *)
let test_spec_rate_range () =
  let spec = healthy_spec () in
  let verdict spec =
    match Spec.validate spec with Ok _ -> "ok" | Error m -> m
  in
  let rates r = verdict { spec with Spec.rates = [ 0.3; r ] } in
  let crash_rates r = verdict { spec with Spec.crash_rates = [ r ] } in
  List.iter
    (fun r ->
      check Alcotest.string (Fmt.str "rate %h" r) "rates must lie in [0, 1]" (rates r);
      check Alcotest.string (Fmt.str "crash rate %h" r) "crash rates must lie in [0, 1]"
        (crash_rates r))
    [ Float.nan; -.Float.nan; Float.infinity; Float.neg_infinity; -0.1; 1.5 ];
  List.iter
    (fun r ->
      check Alcotest.string (Fmt.str "rate %h" r) "ok" (rates r);
      check Alcotest.string (Fmt.str "crash rate %h" r) "ok" (crash_rates r))
    [ 0.0; -0.0; 1.0; 0.5 ];
  (* the text format and a manifest go through the same check *)
  check Alcotest.bool "spec text" true
    (Result.is_error (Spec.parse "protocol = herlihy\nrates = nan\n"));
  let manifest =
    match Spec.to_json spec with
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "rates" then (k, Json.List [ Json.Float Float.nan ]) else (k, v))
             fields)
    | _ -> Alcotest.fail "a spec prints as an object"
  in
  check Alcotest.bool "manifest" true (Result.is_error (Spec.of_json manifest))

let test_spec_json_roundtrip () =
  let spec = healthy_spec () in
  match Spec.of_json (Spec.to_json spec) with
  | Error m -> Alcotest.fail m
  | Ok spec' -> check Alcotest.bool "round-trips" true (Spec.equal spec spec')

(* ---- Grid ---- *)

let test_grid_shape () =
  let spec = healthy_spec () in
  check Alcotest.int "cells" 4 (Grid.n_cells spec);
  check Alcotest.int "trials" 40 (Grid.total_trials spec);
  let t0 = Grid.trial spec 0 and t39 = Grid.trial spec 39 in
  check Alcotest.int "first cell" 0 t0.Grid.cell_id;
  check Alcotest.int "last cell" 3 t39.Grid.cell_id;
  check Alcotest.int "index within cell" 9 t39.Grid.index;
  Alcotest.check_raises "id out of range" (Invalid_argument "Grid.trial: id out of range")
    (fun () -> ignore (Grid.trial spec 40))

let test_grid_seed_determinism () =
  let spec = healthy_spec () in
  let seeds = List.init 40 (fun id -> (Grid.trial spec id).Grid.seed) in
  let seeds' = List.init 40 (fun id -> (Grid.trial spec id).Grid.seed) in
  check (Alcotest.list Alcotest.int64) "stable" seeds seeds';
  let distinct = List.sort_uniq Int64.compare seeds in
  check Alcotest.int "no seed collisions" 40 (List.length distinct)

let test_grid_envelope_kind_aware () =
  (* Thm 6 is stated for overriding faults: the same (f, t, n) cell is in
     envelope with the overriding kind and out with any other — a
     nonresponsive cell's failures are expected data, never theorem
     violations. silent-retry's theorem covers the silent kind instead. *)
  let fig3 = Result.get_ok (Spec.resolve_protocol "fig3") in
  let cell kind =
    {
      Grid.f = 2;
      t = Some 1;
      n = 3;
      kind;
      rate = 0.3;
      crashes = 0;
      crash_rate = 0.0;
      persistence = Ffault_recover.Persistence.Persist_all;
    }
  in
  check Alcotest.bool "overriding in" true (Grid.in_envelope (cell Fault_kind.Overriding) fig3);
  check Alcotest.bool "nonresponsive out" false
    (Grid.in_envelope (cell Fault_kind.Nonresponsive) fig3);
  check Alcotest.bool "silent out" false (Grid.in_envelope (cell Fault_kind.Silent) fig3);
  let retry = Result.get_ok (Spec.resolve_protocol "silent-retry") in
  check Alcotest.bool "silent-retry: silent in" true
    (Grid.in_envelope (cell Fault_kind.Silent) retry);
  check Alcotest.bool "silent-retry: overriding out" false
    (Grid.in_envelope (cell Fault_kind.Overriding) retry)

(* ---- recorded trials: determinism, replay, shrink ---- *)

let failing_setup () =
  let spec = failing_spec () in
  Grid.setup (Grid.cells spec).(0) (Result.get_ok (Spec.resolve_protocol spec.Spec.protocol))

let test_trial_deterministic () =
  let setup = failing_setup () in
  let r1, d1 = Shrink_on_fail.run_recorded setup ~rate:0.9 ~seed:7L in
  let r2, d2 = Shrink_on_fail.run_recorded setup ~rate:0.9 ~seed:7L in
  check (Alcotest.array Alcotest.int) "same decisions" d1 d2;
  check Alcotest.bool "same verdict" (Check.ok r1) (Check.ok r2)

let test_trial_replays () =
  let setup = failing_setup () in
  let report, decisions = Shrink_on_fail.run_recorded setup ~rate:0.9 ~seed:7L in
  let replayed = Shrink_on_fail.replay setup decisions in
  check Alcotest.bool "replay reproduces the verdict" (Check.ok report) (Check.ok replayed)

(* A campaign trial builds no trace. Its trace, when wanted, comes from
   replaying its decision vector, and is the trace of a traced run that
   takes the same choices. *)
let test_trial_carries_no_trace () =
  let setup = failing_setup () in
  let rec first_failure seed =
    let report, decisions = Shrink_on_fail.run_recorded setup ~rate:0.9 ~seed in
    if Check.ok report then first_failure (Int64.add seed 1L) else (report, decisions)
  in
  let trial, decisions = first_failure 1L in
  check Alcotest.bool "the trial carries no trace" true (trial.Check.result.Engine.trace = []);
  (* one recorded index per branchable point, as Dfs records them *)
  let next = ref 0 in
  let take = function
    | [ only ] -> only
    | options ->
        let c = decisions.(!next) in
        incr next;
        List.nth options c
  in
  let traced =
    Check.run_with_driver setup
      {
        Engine.choose_proc = (fun ~enabled ~step:_ -> take enabled);
        choose_outcome = (fun _ ~options -> take options);
        after_step = (fun _ -> []);
      }
  in
  let replayed = Shrink_on_fail.replay setup decisions in
  let render (r : Check.report) =
    Fmt.str "%a" (Trace.pp ~world:(Check.world setup)) r.Check.result.Engine.trace
  in
  let verdict (r : Check.report) =
    ( Array.to_list (Array.map Engine.proc_outcome_to_string r.Check.result.Engine.outcomes),
      List.map Check.violation_to_string r.Check.violations,
      r.Check.result.Engine.total_steps )
  in
  let verdict_t = Alcotest.(triple (list string) (list string) int) in
  check Alcotest.bool "the traced run has a trace" true (traced.Check.result.Engine.trace <> []);
  check verdict_t "the traced run is the trial's run" (verdict trial) (verdict traced);
  check verdict_t "the replay is the trial's run" (verdict trial) (verdict replayed);
  check Alcotest.string "the replay renders the traced run's trace" (render traced)
    (render replayed)

(* [Shrink] replays each candidate untraced, since its verdict reads no
   trace. An untraced [Dfs.replay] of a journaled witness must be the
   traced replay in everything but the trace, on primitive-fault cells
   and on a crash cell alike. *)
let test_untraced_replay_matches_traced () =
  let module Dfs = Ffault_verify.Dfs in
  let witnesses spec =
    let protocol = Result.get_ok (Spec.resolve_protocol spec.Spec.protocol) in
    let cells = Grid.cells spec in
    let found = ref [] in
    let on_record (r : Journal.record) =
      match r.Journal.witness with
      | None -> ()
      | Some w ->
          let cell = (Grid.trial_of_cells spec cells r.Journal.trial).Grid.cell in
          found := (r.Journal.trial, Grid.setup cell protocol, w) :: !found
    in
    ignore (Pool.run_trials ~domains:1 ~on_record spec);
    List.rev !found
  in
  let verdict (r : Check.report) =
    let res = r.Check.result in
    ( Array.to_list (Array.map Engine.proc_outcome_to_string res.Engine.outcomes),
      List.map Check.violation_to_string r.Check.violations,
      (Array.to_list res.Engine.steps_taken, res.Engine.total_steps) )
  in
  let verdict_t = Alcotest.(triple (list string) (list string) (pair (list int) int)) in
  List.iter
    (fun (name, spec) ->
      let ws = witnesses spec in
      check Alcotest.bool (name ^ ": the grid fails") true (ws <> []);
      List.iter
        (fun (id, setup, w) ->
          let what = Fmt.str "%s trial %d" name id in
          let traced = Dfs.replay setup w in
          let untraced = Dfs.replay ~trace:false setup w in
          check Alcotest.bool (what ^ ": the witness violates") false (Check.ok traced);
          check Alcotest.bool (what ^ ": traced has a trace") true
            (traced.Check.result.Engine.trace <> []);
          check verdict_t what (verdict traced) (verdict untraced);
          check Alcotest.bool (what ^ ": untraced has no trace") true
            (untraced.Check.result.Engine.trace = []))
        ws)
    [
      ("herlihy", failing_spec ());
      ( "fig3",
        Spec.v ~name:"fig3-hang" ~protocol:"fig3" ~f:[ 1 ] ~t:[ Some 1 ] ~n:[ 3 ]
          ~kinds:[ Fault_kind.Nonresponsive ] ~rates:[ 0.9 ] ~trials:20 () );
      ( "naive-tas crash",
        Spec.v ~name:"naive-crash" ~protocol:"naive-tas" ~f:[ 0 ] ~n:[ 2 ] ~rates:[ 0.0 ]
          ~crashes:[ 1 ] ~crash_rates:[ 0.4 ] ~trials:40 () );
    ]

let test_shrink_produces_replayable_witness () =
  let setup = failing_setup () in
  (* Scan seeds for a violating trial; p ~ 0.9 so the first few hit. *)
  let rec first_failure seed =
    if Int64.compare seed 50L > 0 then Alcotest.fail "no violation in 50 seeds"
    else
      let r = Shrink_on_fail.run_trial setup ~rate:0.9 ~seed in
      if Check.ok r.Shrink_on_fail.report then first_failure (Int64.add seed 1L) else r
  in
  let r = first_failure 1L in
  match r.Shrink_on_fail.witness with
  | None -> Alcotest.fail "failed trial carries no witness"
  | Some w ->
      check Alcotest.bool "witness no longer than the recording" true
        (Array.length w <= Array.length r.Shrink_on_fail.decisions);
      check Alcotest.bool "witness still violates" false
        (Check.ok (Shrink_on_fail.replay setup w))

(* ---- Journal ---- *)

let sample_record ?(trial = 17) ?(ok = false) ?witness () =
  {
    Journal.trial;
    cell =
      {
        Grid.f = 2;
        t = Some 1;
        n = 3;
        kind = Fault_kind.Overriding;
        rate = 0.4;
        crashes = 0;
        crash_rate = 0.0;
        persistence = Ffault_recover.Persistence.Persist_all;
      };
    seed = -5530000000000000001L;
    ok;
    outcome = (if ok then Journal.Pass else Journal.Violation);
    retries = 0;
    violations = (if ok then [] else [ "consistency: procs decided {1, 2}" ]);
    steps = 41;
    max_steps = 17;
    stage = 3;
    faults = 2;
    crash_faults = 0;
    wall_us = 180;
    witness;
  }

let test_journal_record_roundtrip () =
  List.iter
    (fun r ->
      match Journal.of_line (Journal.to_line r) with
      | Error m -> Alcotest.fail m
      | Ok r' -> check Alcotest.bool "round-trips" true (r = r'))
    [
      sample_record ();
      sample_record ~ok:true ();
      sample_record ~witness:[| 1; 0; 2 |] ();
      { (sample_record ()) with cell = { (sample_record ()).Journal.cell with Grid.t = None } };
      { (sample_record ()) with Journal.outcome = Journal.Timeout; retries = 2; violations = [] };
      { (sample_record ()) with Journal.outcome = Journal.Quarantined; violations = [] };
    ]

let test_journal_write_read () =
  let root = tmp_root () in
  let path = Filename.concat root "j.jsonl" in
  let w = Journal.create_writer ~path in
  let records = List.init 5 (fun i -> sample_record ~trial:i ~ok:(i mod 2 = 0) ()) in
  List.iter (Journal.append w) records;
  Journal.close_writer w;
  check Alcotest.int "count" 5 (Journal.count ~path);
  check Alcotest.bool "load order" true (Journal.load ~path = records)

let test_journal_tolerates_torn_line () =
  let root = tmp_root () in
  let path = Filename.concat root "j.jsonl" in
  let w = Journal.create_writer ~path in
  List.iter (fun i -> Journal.append w (sample_record ~trial:i ())) [ 0; 1; 2 ];
  Journal.close_writer w;
  (* Simulate the kill mid-write: append half a record. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"trial\":3,\"f\":2,\"t\"";
  close_out oc;
  check Alcotest.int "torn line skipped" 3 (Journal.count ~path);
  check Alcotest.int "missing file is empty" 0
    (Journal.count ~path:(Filename.concat root "absent.jsonl"))

let journal_flushes () =
  Option.value ~default:0
    (Ffault_telemetry.Metrics.find_counter (Ffault_telemetry.Metrics.snapshot ())
       "campaign.journal.flushes")

(* Group commit: until [flush] or close, the file holds whole groups of
   64 lines, each written out by one counted flush. *)
let test_journal_group_commit () =
  let root = tmp_root () in
  let path = Filename.concat root "j.jsonl" in
  let records = List.init 100 (fun i -> sample_record ~trial:i ~ok:(i mod 3 = 0) ()) in
  let lines = List.map Journal.to_line records in
  let on_disk () = In_channel.with_open_bin path In_channel.input_lines in
  let before = journal_flushes () in
  let w = Journal.create_writer ~path in
  List.iter (Journal.append w) records;
  check Alcotest.(list string) "the first group only" (List.filteri (fun i _ -> i < 64) lines)
    (on_disk ());
  Journal.flush w;
  check Alcotest.(list string) "every record after a flush" lines (on_disk ());
  check Alcotest.int "two group writes" 2 (journal_flushes () - before);
  Journal.flush w;
  Journal.close_writer w;
  check Alcotest.int "nothing pending: no more writes" 2 (journal_flushes () - before);
  check Alcotest.(list string) "close adds nothing" lines (on_disk ())

(* ---- Pool ---- *)

(* The report of records held in a list. *)
let report_of spec records = Report.of_records spec (fun step -> List.iter step records)

(* A whole journal line but its [wall_us], witness included: what a
   trial journals whichever executor ran it. *)
let line (r : Journal.record) = Journal.to_line { r with Journal.wall_us = 0 }

let run_collect ?ids ~domains spec =
  let records = ref [] in
  let summary =
    Pool.run_trials ?ids ~domains ~on_record:(fun r -> records := r :: !records) spec
  in
  let sorted =
    List.sort (fun a b -> compare a.Journal.trial b.Journal.trial) !records
  in
  (summary, sorted)

(* Two cells that fail, over more than one 64-trial chunk: on 4 domains
   the cells' failures run out of trial order. *)
let two_failing_cells ?(rates = [ 0.3; 0.6 ]) name =
  Spec.v ~name ~protocol:"herlihy" ~f:[ 1 ] ~n:[ 3 ] ~rates ~trials:50 ()

let failing_cells spec records =
  List.sort_uniq compare
    (List.filter_map
       (fun (r : Journal.record) ->
         if r.Journal.outcome = Journal.Violation then Some (r.Journal.trial / spec.Spec.trials)
         else None)
       records)

let test_pool_domain_count_invariance () =
  let spec = two_failing_cells "invariance" in
  let s1, r1 = run_collect ~domains:1 spec in
  let s4, r4 = run_collect ~domains:4 spec in
  check Alcotest.int "all executed (1 dom)" 100 s1.Pool.executed;
  check Alcotest.int "all executed (4 dom)" 100 s4.Pool.executed;
  check Alcotest.(list int) "both cells fail" [ 0; 1 ] (failing_cells spec r1);
  check Alcotest.int "same failure count" s1.Pool.failures s4.Pool.failures;
  check Alcotest.(list string) "identical lines" (List.map line r1) (List.map line r4)

(* A worker runs each lease as one pool call on the lease's ids. Cut a
   failing grid and a crash grid into consecutive calls of 7 ids on one
   domain: the records are the whole run's. *)
let test_pool_lease_split () =
  List.iter
    (fun spec ->
      let _, whole = run_collect ~domains:1 spec in
      let total = Grid.total_trials spec in
      let lease lo = [ (lo, min (lo + 7) total) ] in
      let split =
        List.concat_map
          (fun k -> snd (run_collect ~ids:(lease (7 * k)) ~domains:1 spec))
          (List.init ((total + 6) / 7) Fun.id)
      in
      check Alcotest.bool (spec.Spec.name ^ " fails") true (failing_cells spec whole <> []);
      check Alcotest.(list string) (spec.Spec.name ^ ": leases = whole")
        (List.map line whole) (List.map line split))
    [
      failing_spec ();
      Spec.v ~name:"lease-crash" ~protocol:"naive-tas" ~f:[ 0 ] ~n:[ 2 ] ~rates:[ 0.0 ]
        ~crashes:[ 1 ] ~crash_rates:[ 0.4 ] ~trials:40 ();
    ]

let test_pool_ids () =
  let spec = healthy_spec () in
  let odd = List.init (Grid.total_trials spec / 2) (fun i -> (2 * i) + 1) in
  let summary, records =
    run_collect ~ids:(List.map (fun id -> (id, id + 1)) odd) ~domains:2 spec
  in
  check Alcotest.int "half skipped" 20 summary.Pool.skipped;
  check Alcotest.int "half executed" 20 summary.Pool.executed;
  check Alcotest.(list int) "exactly the odd ids ran" odd
    (List.map (fun r -> r.Journal.trial) records);
  Alcotest.check_raises "a range that ends before it starts"
    (Invalid_argument "Pool.run_trials: a range ends before it starts") (fun () ->
      ignore (Pool.run_trials ~ids:[ (0, 1); (3, 2) ] ~on_record:ignore spec))

(* ---- run_dir + resume (the acceptance scenario) ---- *)

let test_run_dir_resume_after_kill () =
  let root = tmp_root () in
  let spec = healthy_spec ~trials:30 ~name:"resumable" () in
  let total = Grid.total_trials spec in
  (match Pool.run_dir ~domains:2 ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s -> check Alcotest.int "fresh run executes all" total s.Pool.executed);
  let dir = Checkpoint.campaign_dir ~root spec in
  let path = Checkpoint.journal_path ~dir in
  check Alcotest.int "journal complete" total (Journal.count ~path);
  (* Kill: keep only the first 45 journal lines. *)
  let keep =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filteri (fun i _ -> i < 45)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) keep);
  (* Resume must execute exactly the missing trials, no re-execution. *)
  (match Pool.run_dir ~domains:2 ~resume:true ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.int "journaled trials skipped" 45 s.Pool.skipped;
      check Alcotest.int "only the rest executed" (total - 45) s.Pool.executed);
  let records = Journal.load ~path in
  check Alcotest.int "journal complete again" total (List.length records);
  let ids = List.sort_uniq compare (List.map (fun r -> r.Journal.trial) records) in
  check Alcotest.int "every trial exactly once" total (List.length ids);
  (* A fully-journaled campaign resumes to a no-op. *)
  match Pool.run_dir ~domains:2 ~resume:true ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s -> check Alcotest.int "nothing left to run" 0 s.Pool.executed

(* One domain, a journal torn mid-record and resumed: the result is the
   uninterrupted run's journal line for line (but [wall_us]), and every
   resumed trial is announced before the first new record. *)
let test_run_dir_resume_matches_uninterrupted () =
  let spec = failing_spec ~trials:40 ~name:"resume-1dom" () in
  let journal root = Checkpoint.journal_path ~dir:(Checkpoint.campaign_dir ~root spec) in
  let lines root =
    List.map
      (fun r -> Journal.to_line { r with Journal.wall_us = 0 })
      (Journal.load ~path:(journal root))
  in
  let run ?resume ?on_skip ?observe root =
    match Pool.run_dir ~domains:1 ?resume ?on_skip ?observe ~root spec with
    | Ok s -> s
    | Error m -> Alcotest.fail m
  in
  let whole = tmp_root () and torn = tmp_root () in
  ignore (run whole);
  ignore (run torn);
  (* keep 17 records and half of the 18th *)
  let kept = In_channel.with_open_text (journal torn) In_channel.input_lines in
  let half = List.nth kept 17 in
  Out_channel.with_open_text (journal torn) (fun oc ->
      List.iteri (fun i l -> if i < 17 then Out_channel.output_string oc (l ^ "\n")) kept;
      Out_channel.output_string oc (String.sub half 0 (String.length half / 2)));
  let events = ref [] in
  let s =
    run ~resume:true torn
      ~on_skip:(fun () -> events := `Skip :: !events)
      ~observe:(fun _ -> events := `Record :: !events)
  in
  check Alcotest.int "resumed trials skipped" 17 s.Pool.skipped;
  check Alcotest.int "the rest executed" (Grid.total_trials spec - 17) s.Pool.executed;
  let rec leading_skips = function `Skip :: rest -> 1 + leading_skips rest | _ -> 0 in
  let events = List.rev !events in
  check Alcotest.int "every on_skip before the first record" 17 (leading_skips events);
  check Alcotest.int "no on_skip after it" 17
    (List.length (List.filter (( = ) `Skip) events));
  check Alcotest.(list string) "journal as uninterrupted" (lines whole) (lines torn)

exception Stop_observing

(* An exception out of [observe] (as a set-up probe stops a run) ends a
   1-domain run between group writes: the writer is closed on that path
   too, so the journal holds every record appended, and a resume runs
   exactly the rest. *)
let test_run_dir_stopped_keeps_appends () =
  let root = tmp_root () in
  let spec = failing_spec ~trials:200 ~name:"stopped" () in
  let total = Grid.total_trials spec in
  let seen = ref 0 in
  let observe _ =
    incr seen;
    if !seen = 100 then raise Stop_observing
  in
  (match Pool.run_dir ~domains:1 ~observe ~root spec with
  | _ -> Alcotest.fail "the run outlived observe's exception"
  | exception Stop_observing -> ());
  let path = Checkpoint.journal_path ~dir:(Checkpoint.campaign_dir ~root spec) in
  check Alcotest.(list int) "the 100 appended records, not one group"
    (List.init 100 Fun.id)
    (List.map (fun r -> r.Journal.trial) (Journal.load ~path));
  (match Pool.run_dir ~domains:1 ~resume:true ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.int "journaled trials skipped" 100 s.Pool.skipped;
      check Alcotest.int "only the rest executed" (total - 100) s.Pool.executed);
  check Alcotest.(list int) "every trial exactly once" (List.init total Fun.id)
    (List.sort compare (List.map (fun r -> r.Journal.trial) (Journal.load ~path)))

(* ---- supervised execution: deadline, retry, quarantine ---- *)

(* A nanosecond deadline trips before the engine's first poll, so every
   attempt of every trial times out — which drives the whole supervised
   path deterministically: retry, give-up, strike, quarantine. *)
let test_pool_supervised_deadline_quarantine () =
  let spec = healthy_spec ~trials:20 ~name:"supervised" () in
  let n_cells = Grid.n_cells spec in
  let supervision = Pool.supervision ~deadline_s:1e-9 ~max_retries:1 ~quarantine_after:2 () in
  let counter name =
    Option.value ~default:0
      (Ffault_telemetry.Metrics.find_counter (Ffault_telemetry.Metrics.snapshot ()) name)
  in
  let deterministic0 = counter "supervise.deterministic_protocol" in
  let transient0 = counter "supervise.transient_infra" in
  let records = ref [] in
  let summary =
    Pool.run_trials ~domains:1 ~supervision
      ~on_record:(fun r -> records := r :: !records)
      spec
  in
  (* per cell (sequential on 1 domain): 2 give-ups of 1 retry each, then
     the remaining 18 trials quarantined *)
  check Alcotest.int "a give-up per strike" (2 * n_cells)
    (counter "supervise.deterministic_protocol" - deterministic0);
  check Alcotest.int "no retry succeeded" 0 (counter "supervise.transient_infra" - transient0);
  check Alcotest.int "every trial accounted" (Grid.total_trials spec) summary.Pool.executed;
  check Alcotest.int "no protocol verdicts" 0 summary.Pool.failures;
  check Alcotest.int "2 timeouts per cell" (2 * n_cells) summary.Pool.timeouts;
  check Alcotest.int "1 retry per timeout" (2 * n_cells) summary.Pool.retried;
  check Alcotest.int "the rest quarantined" (18 * n_cells) summary.Pool.quarantined;
  List.iter
    (fun (r : Journal.record) ->
      match r.Journal.outcome with
      | Journal.Timeout ->
          check Alcotest.bool "timeout is not ok" false r.Journal.ok;
          check Alcotest.int "retries journaled" 1 r.Journal.retries;
          check Alcotest.bool "no witness from a truncated run" true (r.Journal.witness = None)
      | Journal.Quarantined ->
          check Alcotest.bool "quarantined never ran" true
            (r.Journal.steps = 0 && r.Journal.witness = None)
      | Journal.Pass | Journal.Violation ->
          Alcotest.fail "no trial can finish under a 1ns deadline")
    !records;
  (* the report separates harness health from protocol failures *)
  let report = report_of spec !records in
  check Alcotest.int "report: no failures" 0 report.Report.total_failures;
  check Alcotest.int "report: timeouts" (2 * n_cells) report.Report.health.Report.timeouts;
  check Alcotest.int "report: quarantined" (18 * n_cells)
    report.Report.health.Report.quarantined;
  check Alcotest.int "report: every cell degraded" n_cells
    (List.length report.Report.health.Report.degraded_cells)

let test_pool_unsupervised_summary_unchanged () =
  (* default_supervision has no deadline: the supervised fields stay 0
     and results are the plain deterministic path *)
  let spec = healthy_spec ~trials:5 () in
  let summary, _ = run_collect ~domains:2 spec in
  check Alcotest.int "no timeouts" 0 summary.Pool.timeouts;
  check Alcotest.int "no retries" 0 summary.Pool.retried;
  check Alcotest.int "no quarantine" 0 summary.Pool.quarantined

let test_run_dir_supervised_resume_noop () =
  let root = tmp_root () in
  let spec = healthy_spec ~trials:10 ~name:"supervised-dir" () in
  let supervision = Pool.supervision ~deadline_s:1e-9 ~max_retries:0 ~quarantine_after:1 () in
  (match Pool.run_dir ~domains:2 ~supervision ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.int "all trials journaled" (Grid.total_trials spec) s.Pool.executed;
      check Alcotest.bool "campaign degraded" true (s.Pool.quarantined > 0));
  (* resume (unsupervised): quarantined records count as done — they must
     not be resurrected *)
  match Pool.run_dir ~domains:2 ~resume:true ~root spec with
  | Error m -> Alcotest.fail m
  | Ok s -> check Alcotest.int "nothing resurrected" 0 s.Pool.executed

let test_supervision_validation () =
  (match Pool.supervision ~deadline_s:0.0 () with
  | _ -> Alcotest.fail "zero deadline must be rejected"
  | exception Invalid_argument _ -> ());
  (match Pool.supervision ~quarantine_after:0 () with
  | _ -> Alcotest.fail "quarantine_after 0 must be rejected"
  | exception Invalid_argument _ -> ());
  match Pool.supervision ~max_retries:(-1) () with
  | _ -> Alcotest.fail "negative retries must be rejected"
  | exception Invalid_argument _ -> ()

(* A failing trial's engine runs once, and its witness is the decision
   vector of that run: a pool run minimizes nothing. A generous deadline
   changes nothing. *)
let test_pool_failing_trial_runs_once () =
  let spec =
    Spec.v ~name:"runs-once" ~protocol:"herlihy" ~f:[ 1 ] ~n:[ 3 ] ~rates:[ 0.3; 0.5 ]
      ~trials:100 ()
  in
  let counter name =
    Option.value ~default:0
      (Ffault_telemetry.Metrics.find_counter (Ffault_telemetry.Metrics.snapshot ()) name)
  in
  let collect supervision =
    let records = ref [] in
    let summary =
      Pool.run_trials ~domains:1 ?supervision
        ~on_record:(fun r -> records := r :: !records)
        spec
    in
    (summary, List.rev !records)
  in
  let runs0 = counter "sim.runs" and trials0 = counter "campaign.trials" in
  let summary, records = collect None in
  let runs = counter "sim.runs" - runs0 and trials = counter "campaign.trials" - trials0 in
  check Alcotest.int "every trial counted" (Grid.total_trials spec) trials;
  check Alcotest.bool "some failures" true (summary.Pool.failures > 0);
  check Alcotest.int "one engine run per trial" trials runs;
  let protocol = Result.get_ok (Spec.resolve_protocol spec.Spec.protocol) in
  let cells = Grid.cells spec in
  List.iter
    (fun (r : Journal.record) ->
      let expected =
        if r.Journal.outcome <> Journal.Violation then None
        else
          let trial = Grid.trial_of_cells spec cells r.Journal.trial in
          let setup = Grid.setup trial.Grid.cell protocol in
          Some
            (snd
               (Shrink_on_fail.run_recorded setup ~rate:trial.Grid.cell.Grid.rate
                  ~seed:trial.Grid.seed))
      in
      check
        Alcotest.(option (array int))
        (Fmt.str "trial %d witness" r.Journal.trial)
        expected r.Journal.witness)
    records;
  let _, supervised = collect (Some (Pool.supervision ~deadline_s:5.0 ())) in
  List.iter2
    (fun (a : Journal.record) (b : Journal.record) ->
      check Alcotest.bool
        (Fmt.str "trial %d journals the same under a deadline" a.Journal.trial)
        true
        (a.Journal.trial = b.Journal.trial
        && a.Journal.outcome = b.Journal.outcome
        && a.Journal.steps = b.Journal.steps
        && a.Journal.witness = b.Journal.witness))
    records supervised

(* ---- adaptive deadlines ---- *)

let test_adaptive_deadline_math () =
  let cap = 2.0 in
  check (Alcotest.float 1e-9) "8 x p99" 0.8 (Pool.adaptive_deadline_s ~p99_s:0.1 ~cap_s:cap);
  check (Alcotest.float 1e-9) "capped at the global deadline" cap
    (Pool.adaptive_deadline_s ~p99_s:10.0 ~cap_s:cap);
  check (Alcotest.float 1e-9) "floored at 1ms" 0.001
    (Pool.adaptive_deadline_s ~p99_s:1e-9 ~cap_s:cap);
  check (Alcotest.float 1e-9) "nan p99 falls back to the cap" cap
    (Pool.adaptive_deadline_s ~p99_s:Float.nan ~cap_s:cap);
  check (Alcotest.float 1e-9) "negative p99 falls back to the cap" cap
    (Pool.adaptive_deadline_s ~p99_s:(-1.0) ~cap_s:cap);
  check Alcotest.bool "min samples is sane" true (Pool.adaptive_min_samples >= 1)

let test_adaptive_requires_deadline () =
  (match Pool.supervision ~adaptive_deadline:true () with
  | _ -> Alcotest.fail "adaptive without a deadline must be rejected"
  | exception Invalid_argument _ -> ());
  let s = Pool.supervision ~deadline_s:1.0 ~adaptive_deadline:true () in
  check Alcotest.bool "adaptive set" true s.Pool.adaptive_deadline

(* A healthy grid with enough trials per cell to trip the adaptation
   threshold: trial outcomes must match the unsupervised run exactly
   (the adapted deadline tightens, but healthy trials are orders of
   magnitude under it). *)
let test_adaptive_run_matches_unsupervised () =
  let spec = healthy_spec ~trials:40 ~name:"healthy-adaptive" () in
  let collect supervision =
    let records = ref [] in
    let s =
      Pool.run_trials ~domains:2 ?supervision
        ~on_record:(fun r -> records := r :: !records)
        spec
    in
    let sorted =
      List.sort (fun a b -> compare a.Journal.trial b.Journal.trial) !records
    in
    (s, sorted)
  in
  let s_plain, r_plain = collect None in
  let s_adapt, r_adapt =
    collect (Some (Pool.supervision ~deadline_s:10.0 ~adaptive_deadline:true ()))
  in
  check Alcotest.int "same executed" s_plain.Pool.executed s_adapt.Pool.executed;
  check Alcotest.int "no timeouts" 0 s_adapt.Pool.timeouts;
  check Alcotest.int "no quarantine" 0 s_adapt.Pool.quarantined;
  List.iter2
    (fun a b ->
      check Alcotest.bool
        (Fmt.str "trial %d outcome invariant" a.Journal.trial)
        true
        (a.Journal.outcome = b.Journal.outcome && a.Journal.steps = b.Journal.steps))
    r_plain r_adapt

(* ---- crash mid-append: torn-tail recovery ---- *)

let test_journal_recover_unit () =
  let root = tmp_root () in
  let path = Filename.concat root "journal.jsonl" in
  let w = Journal.create_writer ~path in
  List.iter (fun i -> Journal.append w (sample_record ~trial:i ())) [ 0; 1; 2 ];
  Journal.close_writer w;
  (* Clean file: recovery is a no-op. *)
  let r = Journal.recover ~path in
  check Alcotest.int "clean: nothing dropped" 0 r.Journal.dropped_bytes;
  check Alcotest.bool "clean: no warning" true (r.Journal.warning = None);
  check Alcotest.int "clean: records intact" 3 (Journal.count ~path);
  (* Torn tail: dropped, with a warning, and idempotent. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"trial\":3,\"f\":2,\"t\"";
  close_out oc;
  let r = Journal.recover ~path in
  check Alcotest.bool "torn: bytes dropped" true (r.Journal.dropped_bytes > 0);
  check Alcotest.bool "torn: warned" true (r.Journal.warning <> None);
  check Alcotest.int "torn: complete records kept" 3 (Journal.count ~path);
  let r2 = Journal.recover ~path in
  check Alcotest.int "idempotent" 0 r2.Journal.dropped_bytes;
  (* A parseable tail that only lost its newline is completed, not dropped. *)
  let complete_line = Journal.to_line (sample_record ~trial:3 ()) in
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc complete_line;
  close_out oc;
  let r = Journal.recover ~path in
  check Alcotest.int "repair: nothing dropped" 0 r.Journal.dropped_bytes;
  check Alcotest.bool "repair: warned" true (r.Journal.warning <> None);
  check Alcotest.int "repair: record kept" 4 (Journal.count ~path);
  (* Missing and empty files are no-ops. *)
  let r = Journal.recover ~path:(Filename.concat root "absent.jsonl") in
  check Alcotest.bool "missing file: no-op" true (r.Journal.warning = None)

let test_journal_interior_torn_and_health () =
  let root = tmp_root () in
  let path = Filename.concat root "journal.jsonl" in
  let w = Journal.create_writer ~path in
  Journal.append w (sample_record ~trial:0 ());
  Journal.close_writer w;
  (* Interior damage: a garbage line *between* valid records — something
     sequential flushed appends cannot produce. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{corrupted beyond parsing}\n";
  output_string oc (Journal.to_line (sample_record ~trial:1 ()) ^ "\n");
  close_out oc;
  let bytes () = In_channel.with_open_bin path In_channel.input_all in
  let before = bytes () in
  let r = Journal.recover ~path in
  check Alcotest.int "interior damage is not a torn tail" 0 r.Journal.dropped_bytes;
  check Alcotest.bool "no tail to repair: no warning" true (r.Journal.warning = None);
  check Alcotest.string "recover leaves the interior alone" before (bytes ());
  check Alcotest.int "valid records still readable" 2 (Journal.count ~path);
  let trials, h = Journal.scan ~path ~init:[] ~f:(fun acc r -> r.Journal.trial :: acc) in
  check Alcotest.(list int) "scan: the records that parse" [ 1; 0 ] trials;
  check Alcotest.int "health: lines" 3 h.Journal.h_lines;
  check Alcotest.int "health: parsed" 2 h.Journal.h_parsed;
  check Alcotest.int "health: malformed" 1 h.Journal.h_malformed;
  (* missing file is healthy *)
  let n, h =
    Journal.scan ~path:(Filename.concat root "absent.jsonl") ~init:7 ~f:(fun n _ -> n + 1)
  in
  check Alcotest.int "missing: init" 7 n;
  check Alcotest.int "missing: zeros" 0 (h.Journal.h_lines + h.Journal.h_parsed + h.Journal.h_malformed)

(* [recover] reads back from the end of the file to its last newline, a
   block at a time: tails shorter and longer than a block, tails that
   straddle a block boundary, a file with no newline at all, and a clean
   file. *)
let test_journal_recover_backwards () =
  let root = tmp_root () in
  let path = Filename.concat root "journal.jsonl" in
  let bytes () = In_channel.with_open_bin path In_channel.input_all in
  let write text = Out_channel.with_open_bin path (fun oc -> output_string oc text) in
  let head =
    String.concat "" (List.init 3 (fun i -> Journal.to_line (sample_record ~trial:i ()) ^ "\n"))
  in
  (* A clean file: nothing read past its last byte, nothing changed. *)
  write head;
  let r = Journal.recover ~path in
  check Alcotest.int "clean: nothing dropped" 0 r.Journal.dropped_bytes;
  check Alcotest.bool "clean: no warning" true (r.Journal.warning = None);
  check Alcotest.string "clean: bytes unchanged" head (bytes ());
  (* Garbage tails around the 4096-byte block. *)
  List.iter
    (fun k ->
      write (head ^ String.make k 'x');
      let r = Journal.recover ~path in
      check Alcotest.int (Fmt.str "a %d-byte tail dropped" k) k r.Journal.dropped_bytes;
      check Alcotest.string (Fmt.str "a %d-byte tail: the head kept" k) head (bytes ()))
    [ 1; 4095; 4096; 4097; 4096 - String.length head; 10_000 ];
  (* A record longer than a block (a long violations list), torn, then
     whole but for its newline. *)
  let long =
    Journal.to_line
      {
        (sample_record ~trial:3 ()) with
        Journal.violations = List.init 300 (fun i -> Fmt.str "consistency: violation %d" i);
      }
  in
  check Alcotest.bool "the record spans blocks" true (String.length long > 2 * 4096);
  write (head ^ String.sub long 0 (String.length long - 10));
  let r = Journal.recover ~path in
  check Alcotest.int "long torn tail dropped" (String.length long - 10) r.Journal.dropped_bytes;
  check Alcotest.string "long torn tail: the head kept" head (bytes ());
  write (head ^ long);
  let r = Journal.recover ~path in
  check Alcotest.int "long whole tail: nothing dropped" 0 r.Journal.dropped_bytes;
  check Alcotest.string "long whole tail: completed" (head ^ long ^ "\n") (bytes ());
  (* No newline at all: the whole file is the tail. *)
  write (String.sub long 0 5000);
  let r = Journal.recover ~path in
  check Alcotest.int "no newline, torn: all dropped" 5000 r.Journal.dropped_bytes;
  check Alcotest.string "no newline, torn: empty" "" (bytes ());
  write long;
  let r = Journal.recover ~path in
  check Alcotest.int "no newline, whole: nothing dropped" 0 r.Journal.dropped_bytes;
  check Alcotest.string "no newline, whole: completed" (long ^ "\n") (bytes ());
  check Alcotest.int "no newline, whole: one record" 1 (Journal.count ~path)

let test_journal_legacy_line_compat () =
  (* A pre-supervision journal line has no outcome/retries: readers must
     infer them from ok, so old campaigns keep resuming and reporting. *)
  let legacy =
    "{\"trial\":7,\"f\":2,\"t\":1,\"n\":3,\"kind\":\"overriding\",\"rate\":0.4,\
     \"seed\":\"-5530000000000000001\",\"ok\":true,\"violations\":[],\"steps\":41,\
     \"max_steps\":17,\"stage\":3,\"faults\":2,\"wall_us\":180}"
  in
  (match Journal.of_line legacy with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check Alcotest.bool "ok=true infers Pass" true (r.Journal.outcome = Journal.Pass);
      check Alcotest.int "retries default 0" 0 r.Journal.retries);
  let legacy_fail =
    "{\"trial\":8,\"f\":2,\"t\":1,\"n\":3,\"kind\":\"overriding\",\"rate\":0.4,\
     \"seed\":\"1\",\"ok\":false,\"violations\":[\"v\"],\"steps\":4,\"max_steps\":2,\
     \"stage\":0,\"faults\":1,\"wall_us\":9}"
  in
  match Journal.of_line legacy_fail with
  | Error m -> Alcotest.fail m
  | Ok r ->
      check Alcotest.bool "ok=false infers Violation" true
        (r.Journal.outcome = Journal.Violation)

let test_resume_after_torn_tail () =
  let root = tmp_root () in
  let spec = healthy_spec ~trials:30 ~name:"torn-tail" () in
  let total = Grid.total_trials spec in
  (match Pool.run_dir ~domains:2 ~root spec with
  | Error m -> Alcotest.fail m
  | Ok _ -> ());
  let dir = Checkpoint.campaign_dir ~root spec in
  let path = Checkpoint.journal_path ~dir in
  (* Crash mid-append: cut the file in the middle of the last record. *)
  let text = In_channel.with_open_bin path In_channel.input_all in
  let cut = String.length text - 20 in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub text 0 cut));
  (* Resume treats it as clean truncation: warn, drop the partial
     record, re-run that trial — not fail the whole resume. *)
  let warnings = ref [] in
  (match
     Pool.run_dir ~domains:2 ~resume:true ~root
       ~on_warn:(fun m -> warnings := m :: !warnings)
       spec
   with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.int "exactly the torn trial re-ran" 1 s.Pool.executed;
      check Alcotest.int "the rest skipped" (total - 1) s.Pool.skipped);
  check Alcotest.int "one warning" 1 (List.length !warnings);
  let records = Journal.load ~path in
  check Alcotest.int "journal complete" total (List.length records);
  let ids = List.sort_uniq compare (List.map (fun r -> r.Journal.trial) records) in
  check Alcotest.int "every trial exactly once" total (List.length ids);
  (* The repaired journal aggregates cleanly. *)
  match Report.of_dir ~dir with
  | Error m -> Alcotest.fail m
  | Ok report ->
      check Alcotest.int "report sees every trial" total
        (List.fold_left (fun acc c -> acc + c.Report.trials) 0 report.Report.cells)

(* An interior garbage line and a torn last line: resume warns once,
   with both findings, and re-runs exactly those two trials. *)
let test_resume_interior_and_tail () =
  let root = tmp_root () in
  let spec = healthy_spec ~trials:30 ~name:"interior-tail" () in
  let total = Grid.total_trials spec in
  (match Pool.run_dir ~domains:2 ~root spec with
  | Error m -> Alcotest.fail m
  | Ok _ -> ());
  let path = Checkpoint.journal_path ~dir:(Checkpoint.campaign_dir ~root spec) in
  (* line 40 garbled, and only the first 20 bytes of the last line *)
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Out_channel.with_open_bin path (fun oc ->
      List.iteri
        (fun i l ->
          if i = total - 1 then output_string oc (String.sub l 0 20)
          else output_string oc ((if i = 40 then "{corrupted beyond parsing}" else l) ^ "\n"))
        lines);
  let warnings = ref [] in
  (match
     Pool.run_dir ~domains:2 ~resume:true ~root
       ~on_warn:(fun m -> warnings := m :: !warnings)
       spec
   with
  | Error m -> Alcotest.fail m
  | Ok s ->
      check Alcotest.int "the two damaged trials re-ran" 2 s.Pool.executed;
      check Alcotest.int "the rest skipped" (total - 2) s.Pool.skipped);
  check Alcotest.(list string) "one warning, both findings"
    [
      Fmt.str
        "journal %s: 1 interior record(s) do not parse — not crash damage (appends are \
         sequential); their trials will be re-run, but the file deserves a look; journal %s: \
         dropped a torn 20-byte partial trailing record (crash mid-append); its trial will be \
         re-run"
        path path;
    ]
    !warnings;
  let trials, h = Journal.scan ~path ~init:[] ~f:(fun acc r -> r.Journal.trial :: acc) in
  check Alcotest.(list int) "every trial exactly once" (List.init total Fun.id)
    (List.sort compare trials);
  check Alcotest.int "the interior line stays" 1 h.Journal.h_malformed

(* A done-mask of [total] ids: all clear, all set, or each set with a
   random probability, so runs of every length occur. *)
let done_mask =
  QCheck.make
    ~print:(fun m ->
      String.init (Array.length m) (fun i -> if m.(i) then '1' else '0'))
    QCheck.Gen.(
      int_range 0 300 >>= fun total ->
      frequency
        [
          (1, return (Array.make total false));
          (1, return (Array.make total true));
          ( 6,
            float_bound_inclusive 1.0 >>= fun p ->
            array_repeat total (map (fun x -> x < p) (float_bound_exclusive 1.0)) );
        ])

let runner_tasks () =
  Option.value ~default:0
    (Ffault_telemetry.Metrics.find_counter (Ffault_telemetry.Metrics.snapshot ())
       "runner.tasks")

(* [remaining] gives the unmarked ids as ascending, disjoint, maximal,
   non-empty ranges, and a pool handed them runs exactly those ids, one
   runner task each, in order on 1 domain. *)
let prop_remaining_ranges =
  QCheck.Test.make ~name:"remaining ranges run the unmarked ids" ~count:60 done_mask
    (fun mask ->
      let total = Array.length mask in
      let st = Checkpoint.fresh ~total in
      Array.iteri (fun id marked -> if marked then Checkpoint.mark st id) mask;
      let ranges = Checkpoint.remaining st in
      let unmarked = List.filter (fun id -> not mask.(id)) (List.init total Fun.id) in
      let rec shaped = function
        | (lo, hi) :: ((lo', _) :: _ as rest) -> lo < hi && hi < lo' && shaped rest
        | [ (lo, hi) ] -> lo < hi
        | [] -> true
      in
      let spec = Spec.v ~name:"ranges" ~protocol:"fig1" ~trials:(max 1 total) () in
      let ran = ref [] in
      let before = runner_tasks () in
      let summary =
        Pool.run_trials ~domains:1 ~ids:ranges
          ~on_record:(fun r -> ran := r.Journal.trial :: !ran)
          spec
      in
      shaped ranges
      && List.concat_map (fun (lo, hi) -> List.init (hi - lo) (( + ) lo)) ranges = unmarked
      && List.rev !ran = unmarked
      && runner_tasks () - before = List.length unmarked
      && summary.Pool.skipped = max 1 total - List.length unmarked)

let test_run_dir_refuses_clobber_and_mismatch () =
  let root = tmp_root () in
  let spec = healthy_spec ~name:"guarded" () in
  (match Pool.run_dir ~root spec with
  | Error m -> Alcotest.fail m
  | Ok _ -> ());
  check Alcotest.bool "fresh run refuses existing campaign" true
    (Result.is_error (Pool.run_dir ~root spec));
  let doctored = { spec with Spec.trials = spec.Spec.trials + 1 } in
  check Alcotest.bool "resume refuses a changed spec" true
    (Result.is_error (Pool.run_dir ~resume:true ~root doctored))

(* ---- Report ---- *)

let test_report_aggregates () =
  let spec = failing_spec ~trials:40 () in
  let _, records = run_collect ~domains:2 spec in
  let report = report_of spec records in
  check Alcotest.int "one cell" 1 (List.length report.Report.cells);
  let c = List.hd report.Report.cells in
  check Alcotest.int "trials counted" 40 c.Report.trials;
  check Alcotest.bool "failures observed" true (c.Report.failures > 0);
  check (Alcotest.float 1e-9) "rate consistent"
    (float_of_int c.Report.failures /. 40.0)
    c.Report.failure_rate;
  check Alcotest.int "totals add up" 40 report.Report.total_trials

let test_report_diff_detects_regression () =
  let spec = healthy_spec () in
  let _, records = run_collect ~domains:1 spec in
  let a = report_of spec records in
  (* Self-diff: clean. *)
  let d = Report.diff a a in
  check Alcotest.int "self-diff has no regressions" 0 d.Report.regressions;
  check Alcotest.int "no cells dropped" 0 (List.length d.Report.only_a);
  (* Doctor the journal: flip one cell's trials to failing. *)
  let doctored =
    List.map
      (fun r ->
        if r.Journal.trial < spec.Spec.trials then
          { r with Journal.ok = false; outcome = Journal.Violation; violations = [ "doctored" ] }
        else r)
      records
  in
  let b = report_of spec doctored in
  let d = Report.diff a b in
  check Alcotest.bool "regression detected" true (d.Report.regressions >= 1);
  let d' = Report.diff b a in
  check Alcotest.int "fixes are not regressions" 0 d'.Report.regressions

(* The expected [min_witness] of a cell, worked out from the records:
   the witnesses of its first [Pool.default_max_shrinks_per_cell]
   violations in trial order, minimized, and every other one raw; the
   shortest wins, the lowest trial id on ties. *)
let expected_min_witness spec records cell_id =
  let protocol = Result.get_ok (Spec.resolve_protocol spec.Spec.protocol) in
  let setup = Grid.setup (Grid.cells spec).(cell_id) protocol in
  let in_cell (r : Journal.record) =
    r.Journal.outcome = Journal.Violation && r.Journal.trial / spec.Spec.trials = cell_id
  in
  let violations =
    List.filter_map
      (fun (r : Journal.record) ->
        match r.Journal.witness with
        | Some w when in_cell r -> Some (r.Journal.trial, w)
        | _ -> None)
      records
    |> List.sort compare
  in
  List.mapi
    (fun k (id, w) ->
      if k >= Pool.default_max_shrinks_per_cell then (id, w)
      else
        match Shrink_on_fail.minimize setup w with Some (m, _) -> (id, m) | None -> (id, w))
    violations
  |> List.sort (fun (i, w) (j, v) -> compare (Array.length w, i) (Array.length v, j))
  |> function
  | [] -> None
  | best :: _ -> Some best

let cell_index spec (c : Report.cell_stats) =
  let cells = Grid.cells spec in
  let rec find i = if cells.(i) = c.Report.cell then i else find (i + 1) in
  find 0

(* On a failing grid and a crash grid, whose witnesses replay only under
   their cell's setup. *)
let test_report_min_witness () =
  List.iter
    (fun spec ->
      let _, records = run_collect ~domains:1 spec in
      let protocol = Result.get_ok (Spec.resolve_protocol spec.Spec.protocol) in
      let report = report_of spec records in
      check Alcotest.bool "a cell with more failures than get minimized" true
        (List.exists
           (fun (c : Report.cell_stats) ->
             c.Report.failures > Pool.default_max_shrinks_per_cell)
           report.Report.cells);
      List.iter
        (fun (c : Report.cell_stats) ->
          let cell_id = cell_index spec c in
          check
            Alcotest.(option (pair int (array int)))
            (Fmt.str "%s cell %d min_witness" spec.Spec.name cell_id)
            (expected_min_witness spec records cell_id)
            c.Report.min_witness;
          check
            Alcotest.(option int)
            "min_witness_len is its length"
            (Option.map (fun (_, w) -> Array.length w) c.Report.min_witness)
            c.Report.min_witness_len;
          match c.Report.min_witness with
          | None -> check Alcotest.int "no witness, no failure" 0 c.Report.failures
          | Some (_, w) ->
              check Alcotest.bool "min_witness replays to a violation" false
                (Check.ok (Shrink_on_fail.replay (Grid.setup c.Report.cell protocol) w)))
        report.Report.cells)
    [
      two_failing_cells ~rates:[ 0.3; 0.9 ] "report-witness";
      Spec.v ~name:"report-crash" ~protocol:"naive-tas" ~f:[ 0 ] ~n:[ 2 ] ~rates:[ 0.0 ]
        ~crashes:[ 1 ] ~crash_rates:[ 0.4 ] ~trials:100 ();
    ]

(* [min_witness] does not depend on the records' order (the Welford
   means, float sums, may differ in their last bits). *)
let test_report_order_independent () =
  let spec = two_failing_cells ~rates:[ 0.3; 0.9 ] "report-order" in
  let _, records = run_collect ~domains:1 spec in
  let witnesses records =
    List.map
      (fun (c : Report.cell_stats) -> (c.Report.min_witness_len, c.Report.min_witness))
      (report_of spec records).Report.cells
  in
  let expected = witnesses records in
  let rng = Random.State.make [| 21 |] in
  let shuffle l =
    List.map snd (List.sort compare (List.map (fun r -> (Random.State.bits rng, r)) l))
  in
  List.iter
    (fun order ->
      check Alcotest.bool "same min_witness in every cell" true (witnesses order = expected))
    [ List.rev records; shuffle records; shuffle records ]

(* ---- Live ---- *)

(* One record of each outcome and a resumed trial: only the violation
   is a failure, on the counter and on the heat line. *)
let test_live_counts_violations () =
  let spec =
    Spec.v ~name:"live" ~protocol:"herlihy" ~f:[ 1 ] ~n:[ 3 ]
      ~rates:[ 0.1; 0.2; 0.3; 0.4; 0.5 ] ~trials:2 ()
  in
  let live = Live.create spec in
  let record trial outcome =
    { (sample_record ~trial ()) with Journal.outcome; ok = outcome = Journal.Pass }
  in
  List.iter
    (fun (trial, outcome) -> Live.on_record live (record trial outcome))
    [
      (0, Journal.Pass);
      (2, Journal.Violation);
      (3, Journal.Pass);
      (4, Journal.Timeout);
      (6, Journal.Quarantined);
    ];
  Live.on_skip live;
  let rendered = Live.render live in
  check Alcotest.bool ("done/total in " ^ rendered) true
    (Test_lint.contains ~sub:"6/10 trials (60.0%)" rendered);
  check Alcotest.bool ("one failure of five in " ^ rendered) true
    (Test_lint.contains ~sub:"fail 20.00% (1)" rendered);
  check Alcotest.bool ("heat line in " ^ rendered) true
    (String.ends_with ~suffix:"| .5..?" rendered)

let suites =
  [
    ( "campaign.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "single line" `Quick test_json_single_line;
        Alcotest.test_case "errors" `Quick test_json_errors;
        Alcotest.test_case "accessors" `Quick test_json_accessors;
      ] );
    ( "campaign.spec",
      [
        Alcotest.test_case "axis parsers" `Quick test_spec_axis_parsers;
        Alcotest.test_case "text format" `Quick test_spec_text_format;
        Alcotest.test_case "text errors" `Quick test_spec_text_errors;
        Alcotest.test_case "json roundtrip" `Quick test_spec_json_roundtrip;
        Alcotest.test_case "rates in [0, 1], NaN out" `Quick test_spec_rate_range;
      ] );
    ( "campaign.grid",
      [
        Alcotest.test_case "shape" `Quick test_grid_shape;
        Alcotest.test_case "seed determinism" `Quick test_grid_seed_determinism;
        Alcotest.test_case "envelope is kind-aware" `Quick test_grid_envelope_kind_aware;
      ] );
    ( "campaign.trial",
      [
        Alcotest.test_case "deterministic" `Quick test_trial_deterministic;
        Alcotest.test_case "replays" `Quick test_trial_replays;
        Alcotest.test_case "carries no trace" `Quick test_trial_carries_no_trace;
        Alcotest.test_case "shrink witness" `Quick test_shrink_produces_replayable_witness;
        Alcotest.test_case "untraced replay = traced" `Quick test_untraced_replay_matches_traced;
      ] );
    ( "campaign.journal",
      [
        Alcotest.test_case "record roundtrip" `Quick test_journal_record_roundtrip;
        Alcotest.test_case "write/read" `Quick test_journal_write_read;
        Alcotest.test_case "torn line" `Quick test_journal_tolerates_torn_line;
        Alcotest.test_case "recover torn tail" `Quick test_journal_recover_unit;
        Alcotest.test_case "interior torn + health" `Quick test_journal_interior_torn_and_health;
        Alcotest.test_case "recover reads back to the last newline" `Quick
          test_journal_recover_backwards;
        Alcotest.test_case "legacy line compat" `Quick test_journal_legacy_line_compat;
        Alcotest.test_case "group commit" `Quick test_journal_group_commit;
      ] );
    ( "campaign.pool",
      [
        Alcotest.test_case "domain-count invariance" `Quick test_pool_domain_count_invariance;
        Alcotest.test_case "lease-split = whole" `Quick test_pool_lease_split;
        Alcotest.test_case "runs the given ids" `Quick test_pool_ids;
        Alcotest.test_case "resume after kill" `Quick test_run_dir_resume_after_kill;
        Alcotest.test_case "1-domain resume = whole" `Quick
          test_run_dir_resume_matches_uninterrupted;
        Alcotest.test_case "resume after torn tail" `Quick test_resume_after_torn_tail;
        Alcotest.test_case "stopped run keeps its appends" `Quick
          test_run_dir_stopped_keeps_appends;
        Alcotest.test_case "clobber + mismatch guards" `Quick
          test_run_dir_refuses_clobber_and_mismatch;
      ] );
    ( "campaign.resume",
      [
        Alcotest.test_case "interior + tail" `Quick test_resume_interior_and_tail;
        QCheck_alcotest.to_alcotest prop_remaining_ranges;
      ] );
    ( "campaign.supervised",
      [
        Alcotest.test_case "deadline + retry + quarantine" `Quick
          test_pool_supervised_deadline_quarantine;
        Alcotest.test_case "unsupervised fields stay zero" `Quick
          test_pool_unsupervised_summary_unchanged;
        Alcotest.test_case "quarantined survive resume" `Quick
          test_run_dir_supervised_resume_noop;
        Alcotest.test_case "validation" `Quick test_supervision_validation;
        Alcotest.test_case "a failing trial runs once" `Quick
          test_pool_failing_trial_runs_once;
        Alcotest.test_case "adaptive deadline math" `Quick test_adaptive_deadline_math;
        Alcotest.test_case "adaptive needs a cap" `Quick test_adaptive_requires_deadline;
        Alcotest.test_case "adaptive matches unsupervised" `Quick
          test_adaptive_run_matches_unsupervised;
      ] );
    ( "campaign.report",
      [
        Alcotest.test_case "aggregates" `Quick test_report_aggregates;
        Alcotest.test_case "diff regressions" `Quick test_report_diff_detects_regression;
        Alcotest.test_case "first failures minimized" `Quick test_report_min_witness;
        Alcotest.test_case "min_witness order-independent" `Quick
          test_report_order_independent;
      ] );
    ("campaign.live", [ Alcotest.test_case "violations only" `Quick test_live_counts_violations ]);
  ]
