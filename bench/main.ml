(* Bechamel benchmarks — one group per paper artifact (figures and
   theorems, mirroring experiments E1..E9) plus the performance series
   B1..B3 from DESIGN.md. Each benchmark times one complete adversarial
   run of the relevant construction or analysis, so the series show how
   the cost of consensus (and of defeating it) scales with f, t and n.

   Run: dune exec bench/main.exe            (all groups)
        dune exec bench/main.exe -- e3 b3   (selected groups) *)

open Bechamel
module Consensus = Ffault_consensus
module Protocol = Consensus.Protocol
module Check = Ffault_verify.Consensus_check
module Dfs = Ffault_verify.Dfs
module Fault = Ffault_fault
module Sim = Ffault_sim
module R = Ffault_runtime

(* ---- workload constructors; each returns a thunk that performs one run ---- *)

let sim_consensus ?(always_fault = true) ~protocol ~f ?t ~n ~seed () =
  let params = Protocol.params ?t ~n_procs:n ~f () in
  let setup = Check.setup protocol params in
  fun () ->
    let injector =
      if always_fault then Fault.Injector.always Fault.Fault_kind.Overriding
      else Fault.Injector.never
    in
    let report =
      Check.run setup ~scheduler:(Sim.Scheduler.random ~seed) ~injector ()
    in
    if not (Check.ok report) then failwith "bench: unexpected violation"

let fig1_run = sim_consensus ~protocol:Consensus.Single_cas.two_process ~f:1 ~n:2 ~seed:1L ()

let fig2_run ~f ~n = sim_consensus ~protocol:Consensus.F_tolerant.protocol ~f ~n ~seed:2L ()

let fig3_run ~f ~t ~n =
  sim_consensus ~protocol:Consensus.Bounded_faults.protocol ~f ~t ~n ~seed:3L ()

let dfs_run ~objects ~n =
  let setup =
    Check.setup (Consensus.F_tolerant.with_objects objects)
      (Protocol.params ~n_procs:n ~f:objects ())
  in
  fun () -> ignore (Dfs.explore ~max_executions:100_000 ~max_witnesses:max_int setup)

let covering_run ~f =
  let setup =
    Check.setup Consensus.Bounded_faults.protocol
      (Protocol.params ~t:1 ~n_procs:(f + 2) ~f ())
  in
  fun () ->
    let o = Ffault_impossibility.Covering.run setup in
    if not o.Ffault_impossibility.Covering.violation_found then
      failwith "bench: covering failed to produce its witness"

let hierarchy_row ~f () =
  ignore (Ffault_impossibility.Hierarchy.compute_row ~runs:20 ~t:1 ~f ())

let silent_retry_run ~t =
  let params = Protocol.params ~t ~n_procs:3 ~f:1 () in
  let setup =
    Check.setup ~allowed_faults:[ Fault.Fault_kind.Silent ] Consensus.Silent_retry.protocol
      params
  in
  fun () ->
    let report =
      Check.run setup
        ~scheduler:(Sim.Scheduler.random ~seed:8L)
        ~injector:(Fault.Injector.always Fault.Fault_kind.Silent)
        ()
    in
    if not (Check.ok report) then failwith "bench: silent retry failed"

let universal_counter_run ~n ~ops ~f =
  let module Universal = Consensus.Universal in
  let open Ffault_objects in
  let cfg =
    Universal.config ~f ~slots:((n * ops) + 2) ~kind:Kind.Fetch_and_add
      ~init:(Value.Int 0) ()
  in
  let world = Sim.World.make ~n_procs:n (Universal.world_objects cfg) in
  fun () ->
    let body me () =
      let h = Universal.create cfg ~me in
      for _ = 1 to ops do
        ignore (Universal.apply h (Op.Fetch_and_add 1))
      done;
      Value.Int 0
    in
    let budget = Fault.Budget.create ~max_faulty_objects:f ~max_faults_per_object:None () in
    let engine_cfg = Sim.Engine.config ~max_steps_per_proc:50_000 ~world ~budget () in
    ignore
      (Sim.Engine.run engine_cfg
         ~scheduler:(Sim.Scheduler.random ~seed:9L)
         ~injector:(Fault.Injector.probabilistic ~seed:10L ~p:0.5 Fault.Fault_kind.Overriding)
         ~bodies:(Array.init n body) ())

(* E7: the forged-corruption run that separates the fault models. *)
let forge_run =
  let params = Protocol.params ~t:1 ~n_procs:3 ~f:2 () in
  let setup = Check.setup Consensus.Bounded_faults.protocol params in
  let max_stage = Consensus.Bounded_faults.max_stage ~f:2 ~t:1 in
  fun () ->
    let fired = ref false in
    let data_faults =
      Fault.Data_fault.custom ~name:"stage-forger" (fun ctx ->
          if !fired then []
          else
            match ctx.Fault.Data_fault.state_of (Ffault_objects.Obj_id.of_int 0) with
            | Ffault_objects.Value.Staged { stage; value }
              when stage = max_stage
                   && not (Ffault_objects.Value.equal value (Ffault_objects.Value.Int 101)) ->
                fired := true;
                [
                  {
                    Fault.Data_fault.obj = Ffault_objects.Obj_id.of_int 0;
                    value =
                      Ffault_objects.Value.Staged
                        { value = Ffault_objects.Value.Int 101; stage = max_stage };
                  };
                ]
            | _ -> [])
    in
    let report =
      Check.run setup
        ~scheduler:(Sim.Scheduler.solo_runs ~order:[ 0; 1; 2 ])
        ~injector:Fault.Injector.never ~data_faults ()
    in
    if Check.ok report then failwith "bench: forged corruption failed to break fig3"

(* E10: one degradation profile (over-budget overriding runs). *)
let degradation_run =
  let setup =
    Check.setup (Consensus.F_tolerant.with_objects 2) (Protocol.params ~n_procs:3 ~f:2 ())
  in
  fun () ->
    let p =
      Ffault_verify.Degradation.measure ~runs:50 ~seed:4L
        ~injector:(fun rng ->
          Fault.Injector.probabilistic
            ~seed:(Ffault_prng.Rng.next_seed rng)
            ~p:0.5 Fault.Fault_kind.Overriding)
        setup
    in
    if not (Ffault_verify.Degradation.graceful p) then failwith "bench: degradation not graceful"

(* E11: a mixed-fault mass run. *)
let mixed_run =
  let setup =
    Check.setup
      ~allowed_faults:[ Fault.Fault_kind.Overriding; Fault.Fault_kind.Silent ]
      Consensus.F_tolerant.protocol
      (Protocol.params ~n_procs:4 ~f:2 ())
  in
  fun () ->
    let s =
      Ffault_verify.Mass.run
        ~injector:(fun rng ->
          Fault.Injector.mixed
            ~seed:(Ffault_prng.Rng.next_seed rng)
            [ (Fault.Fault_kind.Overriding, 0.3); (Fault.Fault_kind.Silent, 0.3) ])
        ~n_runs:50 ~base_seed:9L setup
    in
    if s.Ffault_verify.Mass.failure_count > 0 then failwith "bench: mixed-fault violation"

(* E12: one failure-rate measurement point. *)
let curve_point_run =
  let setup = Check.setup Consensus.Single_cas.herlihy (Protocol.params ~n_procs:3 ~f:1 ()) in
  fun () ->
    ignore
      (Ffault_verify.Mass.run
         ~injector:(fun rng ->
           Fault.Injector.probabilistic
             ~seed:(Ffault_prng.Rng.next_seed rng)
             ~p:0.4 Fault.Fault_kind.Overriding)
         ~n_runs:100 ~base_seed:2L setup)

let tas_dfs_run ~silent =
  let allowed = if silent then [ Fault.Fault_kind.Silent ] else [] in
  let f = if silent then 1 else 0 in
  let t = if silent then Some 1 else None in
  let victims = if silent then Some [ Consensus.Tas_consensus.tas_object ] else None in
  let setup =
    Check.setup ~allowed_faults:allowed ?victims Consensus.Tas_consensus.protocol
      (Protocol.params ?t ~n_procs:2 ~f ())
  in
  fun () -> ignore (Dfs.explore ~max_executions:10_000 ~max_witnesses:max_int setup)

let relaxed_queue_run ~k ~p =
  let open Ffault_objects in
  let world = Sim.World.make ~n_procs:3 [ Sim.World.obj ~label:"Q" Kind.Queue ] in
  let q = Obj_id.of_int 0 in
  fun () ->
    let body me () =
      for j = 1 to 3 do
        Sim.Proc.enqueue q (Value.Int ((100 * me) + j))
      done;
      let taken = ref 0 in
      while !taken < 3 do
        if not (Value.is_bottom (Sim.Proc.dequeue q)) then incr taken
      done;
      Value.Int 0
    in
    let budget =
      Fault.Budget.create ~max_faulty_objects:1 ~max_faults_per_object:None ()
    in
    let cfg =
      Sim.Engine.config ~allowed_faults:[ Fault.Fault_kind.Relaxation ]
        ~max_steps_per_proc:1000 ~world ~budget ()
    in
    let rng = Ffault_prng.Rng.make ~seed:55L in
    let injector =
      Fault.Injector.custom ~name:"relaxer" (fun ctx ->
          if
            Ffault_objects.Op.equal ctx.Fault.Injector.op Ffault_objects.Op.Dequeue
            && Ffault_prng.Rng.bernoulli rng ~p
          then
            Fault.Injector.Fault
              {
                kind = Fault.Fault_kind.Relaxation;
                payload = Some (Value.Int (1 + Ffault_prng.Rng.int rng (k - 1)));
              }
          else Fault.Injector.No_fault)
    in
    ignore
      (Sim.Engine.run cfg
         ~scheduler:(Sim.Scheduler.random ~seed:56L)
         ~injector ~bodies:(Array.init 3 body) ())

(* Campaign engine: the same 256-trial fig3 grid pushed through the
   work-stealing pool at increasing domain counts. Records are
   discarded, so the series isolates pool + trial cost — the speedup
   over campaign/1dom is the acceptance number for the orchestrator. *)
let campaign_run ~domains =
  let spec =
    Ffault_campaign.Spec.v ~name:"bench" ~protocol:"fig3" ~f:[ 2 ] ~t:[ Some 1 ] ~n:[ 3 ]
      ~rates:[ 0.3 ] ~trials:256 ~seed:77L ()
  in
  fun () ->
    let s = Ffault_campaign.Pool.run_trials ~domains ~on_record:(fun _ -> ()) spec in
    if s.Ffault_campaign.Pool.failures > 0 then failwith "bench: campaign violation"

(* Recover: overhead of the crash-restart machinery — the campaign pool
   workload with the crash axes live. The recoverable protocols must
   stay clean under a crash-only schedule (asserted, so the bench
   doubles as a smoke check); naive-tas is measured without the
   assertion because its violations are the point of the baseline. *)
let recover_run ~protocol ~expect_clean ~domains =
  let spec =
    Ffault_campaign.Spec.v ~name:"bench-recover" ~protocol ~f:[ 0 ] ~n:[ 2 ] ~rates:[ 0.0 ]
      ~crashes:[ 1 ] ~crash_rates:[ 0.4 ]
      ~persistence:[ Ffault_recover.Persistence.Persist_all ] ~trials:256 ~seed:77L ()
  in
  fun () ->
    let s =
      Ffault_campaign.Pool.run_trials ~domains ~on_record:(fun _ -> ()) spec
    in
    if expect_clean && s.Ffault_campaign.Pool.failures > 0 then
      failwith "bench: recoverable protocol violated under crash-only schedule"

(* B1: raw simulator throughput — a tight CAS ping-pong between n
   processes for a fixed number of steps. *)
let sim_throughput ~n ~steps =
  let open Ffault_objects in
  let world = Sim.World.cas_world ~n_procs:n ~objects:1 in
  let per_proc = steps / n in
  fun () ->
    let body me () =
      let o = Obj_id.of_int 0 in
      for k = 0 to per_proc - 1 do
        ignore
          (Sim.Proc.cas o ~expected:(Value.Int ((k * n) + me)) ~desired:(Value.Int me))
      done;
      Value.Int me
    in
    let cfg =
      Sim.Engine.config ~max_steps_per_proc:(per_proc + 1)
        ~max_total_steps:(steps + n) ~world ~budget:(Fault.Budget.none ()) ()
    in
    ignore
      (Sim.Engine.run cfg
         ~scheduler:(Sim.Scheduler.round_robin ())
         ~injector:Fault.Injector.never
         ~bodies:(Array.init n body) ())

(* B3: the real-multicore substrate. *)
let multicore_run ~protocol ~domains ~p ~seed =
  fun () ->
    let cfg =
      R.Consensus_mc.config
        ~plan_for:(fun o ->
          R.Faulty_cas.plan_probabilistic ~seed:(Int64.add seed (Int64.of_int o)) ~p)
        ~n_domains:domains protocol
    in
    ignore (R.Consensus_mc.execute cfg)

(* Netsim: one complete simulated distributed campaign — coordinator
   engine + workers + fault schedule in virtual time — per run. The
   rate here is what bounds `ffault netsim --schedules N`. *)
let netsim_run ~workers ~trials ~seed =
  let cfg = Ffault_netsim.Sim.config ~workers ~trials ~lease_trials:32 () in
  fun () -> ignore (Ffault_netsim.Sim.run cfg ~seed)

(* Dist: one complete real distributed campaign per run — coordinator
   thread + worker threads over a Unix socket in a throwaway dir. The
   [status] variant attaches the HTTP endpoint; [scrape] additionally
   polls /status from a client thread throughout the run. The spread
   across the three variants is the endpoint's overhead — the
   acceptance bar is "within noise". *)
module Dist = Ffault_dist

let dist_rm_rf root =
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  if Sys.file_exists root then rm root

let dist_tmp =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "ffault-bench-dist-%d-%d" (Unix.getpid ()) !n)

let dist_run ~workers ~status ~scrape =
  let spec =
    Ffault_campaign.Spec.v ~name:"bench-dist" ~protocol:"fig3" ~f:[ 2 ] ~t:[ Some 1 ]
      ~n:[ 3 ] ~rates:[ 0.3 ] ~trials:128 ~seed:0xD157L ()
  in
  fun () ->
    let root = dist_tmp () in
    Unix.mkdir root 0o755;
    Fun.protect ~finally:(fun () -> dist_rm_rf root) @@ fun () ->
    let sock = Filename.concat root "coord.sock" in
    let status_ep =
      if status then Some (Dist.Transport.Unix_sock (Filename.concat root "status.sock"))
      else None
    in
    let cfg =
      Dist.Coordinator.config ~lease_trials:32 ~hb_interval_s:0.2
        (Dist.Transport.Unix_sock sock)
    in
    let serve_result = ref (Error "never ran") in
    let coordinator =
      Thread.create
        (fun () -> serve_result := Dist.Coordinator.serve ?status:status_ep ~root cfg spec)
        ()
    in
    let rec await n =
      if not (Sys.file_exists sock) then
        if n = 0 then failwith "bench: coordinator never listened"
        else begin
          Thread.delay 0.005;
          await (n - 1)
        end
    in
    await 400;
    let stop_scraper = Atomic.make false in
    let scraper =
      match (scrape, status_ep) with
      | true, Some ep ->
          Some
            (Thread.create
               (fun () ->
                 while not (Atomic.get stop_scraper) do
                   ignore (Dist.Http.get ep ~path:"/status");
                   Thread.delay 0.005
                 done)
               ())
      | _ -> None
    in
    let threads =
      List.init workers (fun i ->
          Thread.create
            (fun () ->
              ignore
                (Dist.Worker.run
                   (Dist.Worker.config ~name:(Fmt.str "bw%d" i) ~domains:1
                      (Dist.Transport.Unix_sock sock))))
            ())
    in
    List.iter Thread.join threads;
    Thread.join coordinator;
    Atomic.set stop_scraper true;
    Option.iter Thread.join scraper;
    match !serve_result with
    | Ok _ -> ()
    | Error m -> failwith ("bench: dist serve: " ^ m)

(* ---- benchmark groups ---- *)

let group name tests = (name, Test.make_grouped ~name (List.map (fun (n, f) -> Test.make ~name:n (Staged.stage f)) tests))

let groups =
  [
    group "e1" [ ("fig1/n=2/always-faults", fig1_run) ];
    group "e2"
      [
        ("fig2/f=1/n=4", fig2_run ~f:1 ~n:4);
        ("fig2/f=2/n=4", fig2_run ~f:2 ~n:4);
        ("fig2/f=4/n=4", fig2_run ~f:4 ~n:4);
        ("fig2/f=8/n=4", fig2_run ~f:8 ~n:4);
        ("fig2/f=2/n=2", fig2_run ~f:2 ~n:2);
        ("fig2/f=2/n=8", fig2_run ~f:2 ~n:8);
      ];
    group "e3"
      [
        ("fig3/f=1/t=1/n=2", fig3_run ~f:1 ~t:1 ~n:2);
        ("fig3/f=2/t=1/n=3", fig3_run ~f:2 ~t:1 ~n:3);
        ("fig3/f=2/t=2/n=3", fig3_run ~f:2 ~t:2 ~n:3);
        ("fig3/f=3/t=1/n=4", fig3_run ~f:3 ~t:1 ~n:4);
        ("fig3/f=3/t=2/n=4", fig3_run ~f:3 ~t:2 ~n:4);
      ];
    group "e4"
      [
        ("dfs/sweep1/n=3", dfs_run ~objects:1 ~n:3);
        ("dfs/sweep2/n=3", dfs_run ~objects:2 ~n:3);
      ];
    group "e5"
      [
        ("covering/f=1", covering_run ~f:1);
        ("covering/f=2", covering_run ~f:2);
        ("covering/f=4", covering_run ~f:4);
      ];
    group "e6" [ ("hierarchy-row/f=1", hierarchy_row ~f:1); ("hierarchy-row/f=2", hierarchy_row ~f:2) ];
    group "e8"
      [
        ("silent-retry/t=1", silent_retry_run ~t:1);
        ("silent-retry/t=5", silent_retry_run ~t:5);
      ];
    group "e9"
      [
        ("universal/n=3/ops=2/f=1", universal_counter_run ~n:3 ~ops:2 ~f:1);
        ("universal/n=4/ops=3/f=2", universal_counter_run ~n:4 ~ops:3 ~f:2);
      ];
    group "e7" [ ("forged-corruption-vs-fig3", forge_run) ];
    group "e10" [ ("degradation-profile/50-runs", degradation_run) ];
    group "e11" [ ("mixed-faults/50-runs", mixed_run) ];
    group "e12" [ ("failure-rate-point/100-runs", curve_point_run) ];
    group "e13"
      [
        ("tas-dfs/fault-free", tas_dfs_run ~silent:false);
        ("tas-dfs/silent", tas_dfs_run ~silent:true);
      ];
    group "e14"
      [
        ("relaxed-queue/k=2/p=0.3", relaxed_queue_run ~k:2 ~p:0.3);
        ("relaxed-queue/k=8/p=0.5", relaxed_queue_run ~k:8 ~p:0.5);
      ];
    group "campaign"
      [
        ("campaign/fig3-256/1dom", campaign_run ~domains:1);
        ("campaign/fig3-256/2dom", campaign_run ~domains:2);
        ("campaign/fig3-256/4dom", campaign_run ~domains:4);
      ];
    group "netsim"
      [
        ("netsim/3w-200t", netsim_run ~workers:3 ~trials:200 ~seed:0x11L);
        ("netsim/3w-200t/seed2", netsim_run ~workers:3 ~trials:200 ~seed:0x22L);
        ("netsim/6w-400t", netsim_run ~workers:6 ~trials:400 ~seed:0x33L);
      ];
    group "dist"
      [
        ("dist/2w-128t", dist_run ~workers:2 ~status:false ~scrape:false);
        ("dist/2w-128t/status", dist_run ~workers:2 ~status:true ~scrape:false);
        ("dist/2w-128t/status+scrape", dist_run ~workers:2 ~status:true ~scrape:true);
      ];
    group "recover"
      [
        ("recover/rec-tas-256/1dom", recover_run ~protocol:"rec-tas" ~expect_clean:true ~domains:1);
        ("recover/rec-tas-256/4dom", recover_run ~protocol:"rec-tas" ~expect_clean:true ~domains:4);
        ("recover/rec-cas-256/1dom", recover_run ~protocol:"rec-cas" ~expect_clean:true ~domains:1);
        ( "recover/naive-tas-256/1dom",
          recover_run ~protocol:"naive-tas" ~expect_clean:false ~domains:1 );
      ];
    group "b1"
      [
        ("sim-steps/n=2/10k", sim_throughput ~n:2 ~steps:10_000);
        ("sim-steps/n=8/10k", sim_throughput ~n:8 ~steps:10_000);
      ];
    group "b3"
      [
        ( "mc/single-cas/4dom",
          multicore_run ~protocol:R.Consensus_mc.Single_cas ~domains:4 ~p:0.0 ~seed:1L );
        ( "mc/sweep3/4dom/p=0.3",
          multicore_run ~protocol:(R.Consensus_mc.Sweep 3) ~domains:4 ~p:0.3 ~seed:2L );
        ( "mc/staged-f2-t1/2dom/p=0.3",
          multicore_run ~protocol:(R.Consensus_mc.Staged { f = 2; t = 1 }) ~domains:2 ~p:0.3
            ~seed:3L );
        ( "mc/staged-f2-t1/4dom/p=0.3",
          multicore_run ~protocol:(R.Consensus_mc.Staged { f = 2; t = 1 }) ~domains:4 ~p:0.3
            ~seed:4L );
      ];
  ]

(* ---- runner ---- *)

(* Smoke mode (--smoke, used by `make bench-smoke` in CI): one
   measurement per test under a tiny quota — enough to prove every
   workload still runs and the JSON pipeline works, useless as a
   timing. *)
let smoke = ref false

let benchmark test =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    if !smoke then Benchmark.cfg ~limit:1 ~quota:(Time.second 0.001) ~stabilize:false ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 1.0) ~kde:(Some 1000) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ instance ] test in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  (raw, Analyze.all ols instance raw)

let ns_per_run ols =
  match Analyze.OLS.estimates ols with Some (e :: _) -> e | Some [] | None -> nan

let pretty ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Fmt.str "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Fmt.str "%.2f \xc2\xb5s" (ns /. 1e3)
  else Fmt.str "%.0f ns" ns

(* Where a smoke run's JSON goes: a gitignored directory, so a smoke
   pass never overwrites the committed baselines with its one-shot
   numbers. *)
let smoke_dir = Filename.concat "_campaigns" "bench-smoke"

(* Machine-readable sibling of the printed table: BENCH_<group>.json in
   the working directory (in [smoke_dir] under --smoke), one record per
   test. runs_per_s counts bench runs, and one run is a whole test (often
   128-256 trials): it is not the campaign summary's trials/s. *)
let write_json gname rows =
  let module Json = Ffault_campaign.Json in
  let record (name, iters, ns) =
    Json.Obj
      [
        ("name", Json.Str name);
        ("iters", Json.Int iters);
        ("ns_per_op", if Float.is_nan ns then Json.Null else Json.Float ns);
        ( "runs_per_s",
          if Float.is_nan ns || ns <= 0.0 then Json.Null else Json.Float (1e9 /. ns) );
      ]
  in
  let file = Fmt.str "BENCH_%s.json" gname in
  let path =
    if !smoke then begin
      Ffault_campaign.Checkpoint.mkdir_p smoke_dir;
      Filename.concat smoke_dir file
    end
    else file
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc
        (Json.to_string
           (Json.Obj [ ("group", Json.Str gname); ("results", Json.List (List.map record rows)) ]));
      output_char oc '\n');
  Fmt.pr "  wrote %s@." path

let run_group (gname, test) =
  Fmt.pr "@.== group %s ==@." gname;
  let raw, results = benchmark test in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let iters =
          match Hashtbl.find_opt raw name with
          | Some b -> b.Benchmark.stats.Benchmark.samples
          | None -> 0
        in
        (name, iters, ns_per_run ols) :: acc)
      results []
  in
  let rows = List.sort (fun (a, _, _) (b, _, _) -> String.compare a b) rows in
  List.iter (fun (name, _, ns) -> Fmt.pr "  %-36s %12s/run@." name (pretty ns)) rows;
  write_json gname rows

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let names = List.filter (fun a -> not (String.length a >= 2 && String.sub a 0 2 = "--")) args in
  if List.mem "--smoke" args then smoke := true;
  let selected =
    match names with
    | _ :: _ ->
        let wanted = List.map String.lowercase_ascii names in
        List.filter (fun (g, _) -> List.mem g wanted) groups
    | [] -> groups
  in
  Fmt.pr "ffault benchmark harness — one run = one full adversarial consensus (or analysis)@.";
  List.iter run_group selected;
  Fmt.pr "@.done.@."
