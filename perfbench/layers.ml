(* The traced run: per-layer numbers for one workload, measured by
   timing calls into each layer's public functions from the benchmark's
   own code. It runs in a fresh process like a repetition, in four
   parts:

   1. the workload's campaigns through [Pool.run_trials] with a null
      journal (once to warm up), through [Pool.run_dir], through
      [Pool.run_trials] with a null journal again, and then through a
      bench-driven [Runner.run_tasks] loop with spans around
      [Shrink_on_fail.run_trial], a re-judge through
      [Consensus_check.check_result], [Shrink_on_fail.minimize],
      [Journal.to_line] and [Journal.append] — the [run_dir] journal and
      the traced one must have equal digests;
   2. a distributed campaign (the workload's own on dist-2w, a small one
      elsewhere) timed from outside;
   3. netsim schedules through [Sim.run] one at a time (the workload's
      own sweep on netsim-sweep, 20 schedules elsewhere);
   4. probes of the wire codec, the socket transport, the coordinator
      engine and the runner's domain spawn, fed with the records and
      seed of the workload.

   Spans stay in memory and are written as a Chrome trace at the end.
   Workloads that do not exercise a layer still report it (through the
   small runs above), so every run reports every metric. *)

module Campaign = Ffault_campaign
module Json = Campaign.Json
module Journal = Campaign.Journal
module Grid = Campaign.Grid
module Spec = Campaign.Spec
module Pool = Campaign.Pool
module Checkpoint = Campaign.Checkpoint
module Shrink_on_fail = Campaign.Shrink_on_fail
module Check = Ffault_verify.Consensus_check
module Engine = Ffault_sim.Engine
module Budget = Ffault_fault.Budget
module Value = Ffault_objects.Value
module Runner = Ffault_runtime.Runner
module Metrics = Ffault_telemetry.Metrics
module Clock = Ffault_telemetry.Clock
module Dist = Ffault_dist
module Netsim = Ffault_netsim

(* ---- what the traced run executes, shared with the harness's checks ---- *)

(* The campaigns whose trials the workload executes; dist-2w's workers
   each run its spec on one domain. netsim-sweep runs no trials of its
   own, so its engine-side layers are read on a small fig3 grid and a
   small herlihy grid (the latter always has witnesses to shrink). *)
let local_runs w ~size ~seed =
  match Workload.plan w ~size ~seed with
  | Workload.Local runs -> runs
  | Workload.Dist spec -> [ (spec, 1) ]
  | Workload.Netsim _ ->
      [
        (Workload.grid_spec ~size:Workload.Smoke ~seed, 1);
        (List.hd (Workload.faulty_specs ~trials:60 ~seed), 1);
      ]

let dist_spec w ~size ~seed =
  match Workload.plan w ~size ~seed with
  | Workload.Dist spec -> spec
  | _ -> Workload.grid_spec ~size:Workload.Smoke ~seed

let probe_schedules = 20

let netsim_plan w ~size =
  match Workload.plan w ~size ~seed:0L with
  | Workload.Netsim { config; schedules } -> (config, schedules)
  | _ -> (Netsim.Sim.config (), probe_schedules)

let traced_journal ~dir spec =
  Filename.concat (Filename.concat dir "traced") (spec.Spec.name ^ ".jsonl")
let untraced_root ~dir = Filename.concat dir "untraced"
let dist_root ~dir = Filename.concat dir "dist"
let trace_file w = Filename.concat Workload.work_dir ("trace-" ^ Workload.name w ^ ".json")

(* ---- spans ---- *)

type span = { name : string; tid : int; start_ns : int; stop_ns : int }

let kept = ref []
let span ~name ~tid ~start_ns ~stop_ns = kept := { name; tid; start_ns; stop_ns } :: !kept

(* Only the first trials' spans go to the trace file; totals come from
   the accumulators below, which cover every trial. *)
let max_trial_spans = 20_000
let n_trial_spans = ref 0

let trial_span ~name ~tid ~start_ns ~stop_ns =
  if !n_trial_spans < max_trial_spans then begin
    incr n_trial_spans;
    span ~name ~tid ~start_ns ~stop_ns
  end

let main_tid () = (Domain.self () :> int)

let timed name f =
  let start_ns = Clock.now_ns () in
  let v = f () in
  span ~name ~tid:(main_tid ()) ~start_ns ~stop_ns:(Clock.now_ns ());
  v

let write_trace path =
  let t0 = List.fold_left (fun m s -> min m s.start_ns) max_int !kept in
  let us ns = Json.Float (float_of_int ns /. 1e3) in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str "perfbench");
        ("ph", Json.Str "X");
        ("ts", us (s.start_ns - t0));
        ("dur", us (s.stop_ns - s.start_ns));
        ("pid", Json.Int 1);
        ("tid", Json.Int s.tid);
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj
              [
                ("traceEvents", Json.List (List.rev_map event !kept));
                ("displayTimeUnit", Json.Str "ms");
              ])))

(* ---- 1. the campaign layers ---- *)

(* The record [Pool] journals for a trial; the digest check against the
   [Pool.run_dir] journal holds the two in step. *)
let record_of trial (res : Shrink_on_fail.result) ~witness ~wall_ns =
  let report = res.Shrink_on_fail.report in
  let result = report.Check.result in
  let outcome =
    if result.Engine.interrupted then Journal.Timeout
    else if Check.ok report then Journal.Pass
    else Journal.Violation
  in
  {
    Journal.trial = trial.Grid.id;
    cell = trial.Grid.cell;
    seed = trial.Grid.seed;
    ok = outcome = Journal.Pass;
    outcome;
    retries = 0;
    violations = List.map (Fmt.str "%a" Check.pp_violation) report.Check.violations;
    steps = result.Engine.total_steps;
    max_steps = Array.fold_left max 0 result.Engine.steps_taken;
    stage =
      Array.fold_left
        (fun acc v -> match Value.stage v with Some s when s > acc -> s | _ -> acc)
        (-1) result.Engine.final_states;
    faults = Budget.total_faults result.Engine.budget;
    crash_faults = Budget.total_crashes result.Engine.budget;
    wall_us = wall_ns / 1000;
    witness;
  }

(* Timestamps of one trial, taken on the domain that ran it. *)
type cost = {
  tid : int;
  t_run : int;  (** run_trial called *)
  t_check : int;  (** run_trial returned; re-judge called *)
  t_min : int;  (** re-judge returned; minimize called if it shrinks *)
  t_done : int;  (** minimize returned; Journal.to_line called *)
  t_encoded : int;
  shrunk : bool;
  words : float;  (** minor words run_trial allocated *)
}

type acc = {
  mutable trials : int;
  mutable steps : int;
  mutable run_ns : int;
  mutable check_ns : int;
  mutable min_ns : int;
  mutable witnesses : int;
  mutable words : float;
  mutable busy_ns : int;  (** in the worker, on any domain *)
  mutable encode_ns : int;
  mutable append_ns : int;  (** all of [consume], under the runner's lock *)
  mutable wall_ns : int;
  mutable domain_wall_ns : int;
  mutable trial_us : float list;
  mutable bytes : int;
}

let traced_campaign acc ~path (spec, domains) =
  let protocol = Checks.protocol_of spec in
  let cells = Grid.cells spec in
  let setups = Array.map (fun c -> Grid.setup c protocol) cells in
  let shrink_budget = Array.map (fun _ -> Atomic.make 0) cells in
  let crash_plan_of trial =
    let cell = trial.Grid.cell in
    if cell.Grid.crashes > 0 && cell.Grid.crash_rate > 0.0 then
      Some
        (Ffault_recover.Crash_plan.make
           ~seed:(Grid.crash_plan_seed spec trial.Grid.seed)
           ~rate:cell.Grid.crash_rate)
    else None
  in
  let worker id =
    let trial = Grid.trial_of_cells spec cells id in
    let setup = setups.(trial.Grid.cell_id) in
    let w0 = Gc.minor_words () in
    let t_run = Clock.now_ns () in
    let res =
      Shrink_on_fail.run_trial ~shrink:false ?crash_plan:(crash_plan_of trial) setup
        ~rate:trial.Grid.cell.Grid.rate ~seed:trial.Grid.seed
    in
    let t_check = Clock.now_ns () in
    let words = Gc.minor_words () -. w0 in
    ignore (Check.check_result setup res.Shrink_on_fail.report.Check.result);
    let t_min = Clock.now_ns () in
    let witness, shrunk =
      if Check.ok res.Shrink_on_fail.report then (None, false)
      else if
        Atomic.fetch_and_add shrink_budget.(trial.Grid.cell_id) 1
        < Pool.default_max_shrinks_per_cell
      then
        match Shrink_on_fail.minimize setup res.Shrink_on_fail.decisions with
        | Some (w, _) -> (Some w, true)
        | None -> (Some res.Shrink_on_fail.decisions, true)
      else (Some res.Shrink_on_fail.decisions, false)
    in
    let t_done = Clock.now_ns () in
    let record = record_of trial res ~witness ~wall_ns:(t_check - t_run + (t_done - t_min)) in
    (* timed here, outside the consume lock, so that [consume] does what
       the pool's does: one append *)
    ignore (Journal.to_line record);
    let t_encoded = Clock.now_ns () in
    (record, { tid = main_tid (); t_run; t_check; t_min; t_done; t_encoded; shrunk; words })
  in
  let writer = Journal.create_writer ~path in
  let consume _ (record, c) =
    let t1 = Clock.now_ns () in
    Journal.append writer record;
    let t2 = Clock.now_ns () in
    acc.trials <- acc.trials + 1;
    acc.steps <- acc.steps + record.Journal.steps;
    acc.run_ns <- acc.run_ns + (c.t_check - c.t_run);
    acc.check_ns <- acc.check_ns + (c.t_min - c.t_check);
    if c.shrunk then begin
      acc.witnesses <- acc.witnesses + 1;
      acc.min_ns <- acc.min_ns + (c.t_done - c.t_min)
    end;
    acc.words <- acc.words +. c.words;
    acc.busy_ns <- acc.busy_ns + (c.t_encoded - c.t_run);
    acc.encode_ns <- acc.encode_ns + (c.t_encoded - c.t_done);
    acc.append_ns <- acc.append_ns + (t2 - t1);
    acc.trial_us <-
      (float_of_int (c.t_check - c.t_run + (c.t_done - c.t_min)) /. 1e3) :: acc.trial_us;
    trial_span ~name:"trial" ~tid:c.tid ~start_ns:c.t_run ~stop_ns:c.t_encoded;
    trial_span ~name:"Shrink_on_fail.run_trial" ~tid:c.tid ~start_ns:c.t_run ~stop_ns:c.t_check;
    trial_span ~name:"Consensus_check.check_result" ~tid:c.tid ~start_ns:c.t_check
      ~stop_ns:c.t_min;
    if c.shrunk then
      trial_span ~name:"Shrink_on_fail.minimize" ~tid:c.tid ~start_ns:c.t_min ~stop_ns:c.t_done;
    trial_span ~name:"Journal.to_line" ~tid:c.tid ~start_ns:c.t_done ~stop_ns:c.t_encoded;
    trial_span ~name:"Journal.append" ~tid:(main_tid ()) ~start_ns:t1 ~stop_ns:t2
  in
  let t0 = Clock.now_ns () in
  Fun.protect
    ~finally:(fun () -> Journal.close_writer writer)
    (fun () -> Runner.run_tasks ~domains ~total:(Grid.total_trials spec) ~worker ~consume ());
  let wall = Clock.now_ns () - t0 in
  span ~name:"Runner.run_tasks" ~tid:(main_tid ()) ~start_ns:t0 ~stop_ns:(t0 + wall);
  acc.wall_ns <- acc.wall_ns + wall;
  acc.domain_wall_ns <- acc.domain_wall_ns + (wall * domains);
  acc.bytes <- acc.bytes + (Unix.stat path).Unix.st_size

let counter name = Option.value ~default:0 (Metrics.find_counter (Metrics.snapshot ()) name)

(* ---- 2. distributed campaign, timed from outside ---- *)

let dist_part ~exe ~dir spec =
  Checkpoint.mkdir_p dir;
  let d = timed "Dist.Coordinator.serve" (fun () -> Rep.dist ~exe ~dir ~setup_only:false spec) in
  (float_of_int (d.Rep.d_last_exit_ns - d.Rep.d_serve_ns) /. 1e9, d.Rep.d_leases)

(* ---- 3. netsim schedules one at a time ---- *)

type netsim = {
  schedules : int;
  violations : int;
  events : int;
  sched_ms : float list;
  sim_ns : int;
  records : Journal.record array;  (** the first schedules' journals, for the probes *)
  first_records : Journal.record array;  (** schedule 0's journal *)
}

let netsim_part ~config ~root ~schedules =
  let events = ref 0 and violations = ref 0 and sim_ns = ref 0 in
  let sched_ms = ref [] and records = ref [] and first = ref [||] in
  for i = 0 to schedules - 1 do
    let seed = Netsim.Search.schedule_seed ~root i in
    let t0 = Clock.now_ns () in
    let r = Netsim.Sim.run config ~seed in
    let t1 = Clock.now_ns () in
    span ~name:"Netsim.Sim.run" ~tid:(main_tid ()) ~start_ns:t0 ~stop_ns:t1;
    sim_ns := !sim_ns + (t1 - t0);
    sched_ms := (float_of_int (t1 - t0) /. 1e6) :: !sched_ms;
    events := !events + r.Netsim.Sim.events;
    if Option.is_some r.Netsim.Sim.violation then incr violations;
    if i = 0 then first := Array.of_list r.Netsim.Sim.records;
    if i < probe_schedules then records := List.rev_append r.Netsim.Sim.records !records
  done;
  {
    schedules;
    violations = !violations;
    events = !events;
    sched_ms = !sched_ms;
    sim_ns = !sim_ns;
    records = Array.of_list (List.rev !records);
    first_records = !first;
  }

(* ---- 4. probes ---- *)

let per_us ns n = if n = 0 then 0.0 else float_of_int ns /. 1e3 /. float_of_int n

(* [Codec.to_frame] + [Wire.encode] of a Result frame, then the
   incremental decoder and [Codec.of_frame]; the decoded records must
   equal the originals. *)
let codec_probe records =
  let n = Array.length records in
  let t0 = Clock.now_ns () in
  let encoded =
    Array.map (fun r -> Dist.Wire.encode (Dist.Codec.to_frame (Dist.Codec.Result r))) records
  in
  let t1 = Clock.now_ns () in
  let d = Dist.Wire.Decoder.create () in
  let decoded =
    Array.map
      (fun s ->
        Dist.Wire.Decoder.feed d s;
        match Dist.Wire.Decoder.next d with
        | Ok (Some f) -> Dist.Codec.of_frame f
        | Ok None -> Error "short frame"
        | Error m -> Error m)
      encoded
  in
  let t2 = Clock.now_ns () in
  span ~name:"Codec.to_frame+Wire.encode" ~tid:(main_tid ()) ~start_ns:t0 ~stop_ns:t1;
  span ~name:"Wire.Decoder+Codec.of_frame" ~tid:(main_tid ()) ~start_ns:t1 ~stop_ns:t2;
  Array.iteri
    (fun i m ->
      match m with
      | Ok (Dist.Codec.Result r) when Journal.to_line r = Journal.to_line records.(i) -> ()
      | Ok _ -> failwith "codec probe: a Result frame did not round-trip"
      | Error m -> failwith ("codec probe: " ^ m))
    decoded;
  let bytes = Array.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  (per_us (t1 - t0) n, per_us (t2 - t1) n, float_of_int bytes /. float_of_int (max 1 n))

let ok_or_fail what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* One Result frame per [send_msg] over a Unix socket, drained by a
   reader thread on the accepting side. *)
let transport_probe ~dir records =
  let module T = Dist.Transport in
  let ep = T.Unix_sock (Filename.concat dir "t.sock") in
  let listener = ok_or_fail "listen" (T.listen ep) in
  let client = ok_or_fail "connect" (T.connect ep) in
  let server = ok_or_fail "accept" (T.accept listener) in
  let received = ref 0 in
  let reader =
    Thread.create
      (fun () ->
        let rec loop () =
          match T.recv_step server with
          | `Frames fs ->
              received := !received + List.length fs;
              loop ()
          | `Closed | `Error _ -> ()
        in
        loop ())
      ()
  in
  let msgs = Array.map (fun r -> Dist.Codec.Result r) records in
  let t0 = Clock.now_ns () in
  Array.iter (fun m -> ok_or_fail "send" (T.send_msg client m)) msgs;
  let t1 = Clock.now_ns () in
  span ~name:"Transport.send_msg" ~tid:(main_tid ()) ~start_ns:t0 ~stop_ns:t1;
  T.close client;
  Thread.join reader;
  T.close server;
  T.close_listener listener;
  if !received <> Array.length msgs then failwith "transport probe: frames lost";
  per_us (t1 - t0) (Array.length msgs)

let max_probe_leases = 20

(* The coordinator engine through [create]/[deliver] with in-memory io
   and a real journal writer: a Request per lease (the round-trip is
   decode, grant and the Lease reply), then the lease's Result frames
   (decode, dedup, journal append), then its Complete. *)
let core_probe ~dir ~spec ~lease_trials records_by_id =
  let replies = Queue.create () in
  let io =
    {
      Dist.Core.peer = (fun () -> "probe");
      send =
        (fun () m ->
          Queue.push m replies;
          Ok ());
      close = ignore;
    }
  in
  let path = Filename.concat dir "core.jsonl" in
  let writer = Journal.create_writer ~path in
  let core =
    Dist.Core.create ~io ~append:(Journal.append writer)
      ~st:(Checkpoint.fresh ~total:(Grid.total_trials spec))
      ~spec ~lease_trials ~lease_timeout_s:30.0 ~hb_interval_s:2.0 ~max_workers:64
      ~supervision:Dist.Codec.no_supervision ()
  in
  let c = Dist.Core.add_client core () in
  let deliver m = Dist.Core.deliver core c (Dist.Codec.to_frame m) in
  deliver (Dist.Worker.Protocol.hello ~name:"probe" ~domains:1 ~last_epoch:0);
  Queue.clear replies;
  let request = Dist.Codec.to_frame Dist.Codec.Request in
  let rt_ns = ref 0 and leases = ref 0 and res_ns = ref 0 and results = ref 0 in
  let rec lease () =
    if !leases < max_probe_leases then begin
      let t0 = Clock.now_ns () in
      Dist.Core.deliver core c request;
      let t1 = Clock.now_ns () in
      span ~name:"Core.deliver Request" ~tid:(main_tid ()) ~start_ns:t0 ~stop_ns:t1;
      match Queue.pop replies with
      | Dist.Codec.Lease { lease = id; epoch; lo; hi; _ } ->
          incr leases;
          rt_ns := !rt_ns + (t1 - t0);
          let frames =
            Array.init (hi - lo) (fun i ->
                Dist.Codec.to_frame (Dist.Codec.Result records_by_id.(lo + i)))
          in
          let t2 = Clock.now_ns () in
          Array.iter (Dist.Core.deliver core c) frames;
          let t3 = Clock.now_ns () in
          span ~name:"Core.deliver Result" ~tid:(main_tid ()) ~start_ns:t2 ~stop_ns:t3;
          res_ns := !res_ns + (t3 - t2);
          results := !results + (hi - lo);
          deliver (Dist.Codec.Complete { lease = id; epoch });
          Queue.clear replies;
          lease ()
      | _ -> ()
    end
  in
  Fun.protect ~finally:(fun () -> Journal.close_writer writer) lease;
  if Journal.count ~path <> !results then failwith "core probe: results not journaled";
  (per_us !rt_ns !leases, per_us !res_ns !results)

let spawn_join_ms () =
  Stats.median
    (List.init 20 (fun _ ->
         let t0 = Clock.now_ns () in
         Runner.run_tasks ~chunk:1 ~domains:2 ~total:2 ~worker:ignore
           ~consume:(fun _ () -> ())
           ();
         float_of_int (Clock.now_ns () - t0) /. 1e6))

(* At most [n] elements, evenly spaced. *)
let sample n a =
  let len = Array.length a in
  if len <= n then a else Array.init n (fun i -> a.(i * len / n))

(* ---- the traced run ---- *)

let main ~exe ~dir ~size ~seed w =
  let runs = local_runs w ~size ~seed in
  List.iter (fun d -> Checkpoint.mkdir_p (Filename.concat dir d)) [ "traced"; "probe" ];
  let pool_wall f = List.fold_left (fun s run -> s +. (f run).Pool.wall_s) 0.0 runs in
  let null_journal () =
    pool_wall (fun (spec, domains) -> Pool.run_trials ~domains ~on_record:ignore spec)
  in
  (* A fresh process runs its first campaign slow (heap growth, cold
     code); this run only warms up. *)
  ignore (timed "warm-up: Pool.run_trials (null journal)" null_journal);
  let dir_trials = ref 0 in
  let dir_s =
    timed "Pool.run_dir" (fun () ->
        pool_wall (fun (spec, domains) ->
            let s =
              ok_or_fail "run_dir" (Pool.run_dir ~domains ~root:(untraced_root ~dir) spec)
            in
            dir_trials := !dir_trials + s.Pool.executed;
            s))
  in
  let null_s = timed "Pool.run_trials (null journal)" null_journal in
  let acc =
    {
      trials = 0; steps = 0; run_ns = 0; check_ns = 0; min_ns = 0; witnesses = 0;
      words = 0.0; busy_ns = 0; encode_ns = 0; append_ns = 0; wall_ns = 0;
      domain_wall_ns = 0; trial_us = []; bytes = 0;
    }
  in
  let it0 = counter "shrink.iterations" in
  let mc0 = (Gc.quick_stat ()).Gc.minor_collections in
  List.iter
    (fun ((spec, _) as run) -> traced_campaign acc ~path:(traced_journal ~dir spec) run)
    runs;
  let minor_collections = (Gc.quick_stat ()).Gc.minor_collections - mc0 in
  let iterations = counter "shrink.iterations" - it0 in
  let tail_s, leases = dist_part ~exe ~dir:(dist_root ~dir) (dist_spec w ~size ~seed) in
  let config, schedules = netsim_plan w ~size in
  let ns = netsim_part ~config ~root:seed ~schedules in
  (* netsim-sweep's own overhead: the same sweep untraced *)
  let explored_events, explore_s =
    match w with
    | Workload.Netsim_sweep ->
        let t0 = Clock.now_ns () in
        let s = Netsim.Search.explore ~config ~root:seed ~schedules () in
        (Some s.Netsim.Search.total_events, float_of_int (Clock.now_ns () - t0) /. 1e9)
    | _ -> (None, 0.0)
  in
  let probe_records, core_spec, lease_trials, by_id =
    match w with
    | Workload.Netsim_sweep ->
        ( ns.records,
          (* the spec a simulated coordinator journals under *)
          Spec.v ~name:"netsim" ~protocol:"fig1" ~trials:config.Netsim.Sim.trials (),
          config.Netsim.Sim.lease_trials,
          ns.first_records )
    | _ ->
        let journals =
          List.map
            (fun (spec, _) -> Array.of_list (Journal.load ~path:(traced_journal ~dir spec)))
            runs
        in
        let first = List.hd journals in
        let by_id = Array.copy first in
        Array.iter (fun r -> by_id.(r.Journal.trial) <- r) first;
        ( Array.concat journals,
          fst (List.hd runs),
          (Rep.coordinator_config "").Dist.Coordinator.lease_trials,
          by_id )
  in
  let sampled = sample 4000 probe_records in
  let encode_us, decode_us, wire_bytes = codec_probe sampled in
  let send_us = transport_probe ~dir:(Filename.concat dir "probe") sampled in
  let roundtrip_us, result_us =
    core_probe ~dir:(Filename.concat dir "probe") ~spec:core_spec ~lease_trials by_id
  in
  let spawn_ms = spawn_join_ms () in
  write_trace (trace_file w);
  let f = float_of_int in
  let div a b = if b = 0.0 then 0.0 else a /. b in
  let trials = f acc.trials and steps = f acc.steps in
  let traced_tps = div trials (f acc.wall_ns /. 1e9) in
  let overhead_pct =
    match w with
    | Workload.Netsim_sweep ->
        100.0 *. (1.0 -. div (f ns.schedules /. (f ns.sim_ns /. 1e9)) (f schedules /. explore_s))
    | _ -> 100.0 *. (1.0 -. div traced_tps (div (f !dir_trials) dir_s))
  in
  let metrics =
    [
      ("sim.steps_per_trial", div steps trials);
      ("sim.ns_per_step", div (f (acc.run_ns - acc.check_ns)) steps);
      ("sim.minor_words_per_step", div acc.words steps);
      ("check.us_per_trial", per_us acc.check_ns acc.trials);
      ("campaign.trial_us_p50", Stats.percentile acc.trial_us 50.0);
      ("campaign.trial_us_p99", Stats.percentile acc.trial_us 99.0);
      ("shrink.witnesses", f acc.witnesses);
      ("shrink.ms_per_witness", div (f acc.min_ns /. 1e6) (f acc.witnesses));
      ("shrink.iterations_per_witness", div (f iterations) (f acc.witnesses));
      ("journal.bytes_per_trial", div (f acc.bytes) trials);
      ("journal.encode_us", per_us acc.encode_ns acc.trials);
      ("journal.append_us", per_us acc.append_ns acc.trials);
      ("journal.share", 1.0 -. div null_s dir_s);
      ("runner.spawn_join_ms", spawn_ms);
      ("runner.busy_share", div (f acc.busy_ns) (f acc.domain_wall_ns));
      ("runner.consume_share", div (f acc.append_ns) (f acc.wall_ns));
      ("gc.minor_collections_per_ktrial", div (1000.0 *. f minor_collections) trials);
      ("codec.result_encode_us", encode_us);
      ("codec.result_decode_us", decode_us);
      ("wire.bytes_per_trial", wire_bytes);
      ("transport.send_us", send_us);
      ("core.lease_roundtrip_us", roundtrip_us);
      ("core.result_us", result_us);
      ("dist.tail_s", tail_s);
      ("dist.leases_granted", f leases);
      ("netsim.events_per_schedule", div (f ns.events) (f ns.schedules));
      ("netsim.us_per_event", per_us ns.sim_ns ns.events);
      ("netsim.schedule_ms_p99", Stats.percentile ns.sched_ms 99.0);
      ("trace.overhead_pct", overhead_pct);
    ]
  in
  let ms ns = f ns /. 1e6 in
  let self =
    [
      ("Sim.Engine (run_trial minus its check)", ms (acc.run_ns - acc.check_ns));
      ("Consensus_check.check_result", ms acc.check_ns);
      ("Shrink_on_fail.minimize", ms acc.min_ns);
      ("Journal.to_line", ms acc.encode_ns);
      ("Journal.append (encode, write, flush)", ms acc.append_ns);
      ("Runner/Pool (idle and scheduling)", ms (acc.domain_wall_ns - acc.busy_ns - acc.append_ns));
      ("Netsim.Sim.run", ms ns.sim_ns);
    ]
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("metrics", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) metrics));
            ("self_ms", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) self));
            ("schedules", Json.Int ns.schedules);
            ("schedule_violations", Json.Int ns.violations);
            ( "events_match",
              Json.Bool (match explored_events with Some e -> e = ns.events | None -> true) );
          ]))
