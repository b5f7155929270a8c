(* ffault — command-line driver for the Functional Faults reproduction.

   Subcommands: experiment (run E1..E15 and print their report tables),
   list, trace (render one adversarial execution; trace merge joins
   Chrome traces), explore (bounded exhaustive model checking, with
   witness shrinking), replay (re-run a witness decision vector),
   falsify (portfolio search), critical (the executable valency walk),
   severity (fault order), hierarchy (consensus-number table),
   multicore (domains + atomics runs), campaign (parallel
   fault-injection campaigns with persistent journals: run | resume |
   serve | status | report | diff), worker (runs the leases of a
   campaign serve coordinator), netsim (deterministic simulation of the
   distributed layer), and lint (compiler-libs static analysis of the
   fault-injection / determinism invariants, doc/LINT.md).

   Each flag group shared by several commands is one term yielding a
   validated value: instance_term, spec_term, supervision_term and
   observe_term. A bad value prints `error: ...' and exits 1. *)

open Cmdliner
module Experiments = Ffault_experiments
module Consensus = Ffault_consensus
module Protocol = Consensus.Protocol
module Check = Ffault_verify.Consensus_check
module Dfs = Ffault_verify.Dfs
module Fault = Ffault_fault
module Sim = Ffault_sim
module Campaign = Ffault_campaign
module Telemetry = Ffault_telemetry
module Lint = Ffault_lint
module Dist = Ffault_dist
module Netsim = Ffault_netsim

(* ---- shared options ---- *)

(* How every command reports bad input: one [error:] line on stderr and
   a nonzero exit, 1 unless the command documents another code. *)
let fail ?(code = 1) m =
  Fmt.epr "error: %s@." m;
  code

(* [let@ v = r in k]: continue with a validated value, or [fail]. *)
let ( let@ ) r k = match r with Ok v -> k v | Error m -> fail m

(* A library builder's [Invalid_argument] as a validation error. *)
let validated build = match build () with v -> Ok v | exception Invalid_argument m -> Error m

let seed_arg =
  let doc = "Root seed for randomized schedules and fault plans." in
  Arg.(value & opt int 0xF417 & info [ "seed" ] ~docv:"SEED" ~doc)

let quick_arg =
  let doc = "Smaller sweeps and fewer runs (CI-friendly)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let f_arg =
  let doc = "Fault budget f (maximum number of faulty objects)." in
  Arg.(value & opt int 2 & info [ "f" ] ~docv:"F" ~doc)

let t_arg =
  let doc = "Fault bound t per faulty object (omit for unbounded)." in
  Arg.(value & opt (some int) None & info [ "t" ] ~docv:"T" ~doc)

let n_arg =
  let doc = "Number of processes." in
  Arg.(value & opt int 3 & info [ "n" ] ~docv:"N" ~doc)

let protocol_arg =
  let doc =
    "Protocol under test: fig1 (two-process single CAS), fig2 (f-tolerant sweep, f+1 \
     objects), fig3 (bounded-faults staged, f objects), herlihy (fault-free baseline), \
     silent-retry, tas (2-process test-and-set consensus), sweepN (the Fig. 2 sweep \
     over exactly N objects, e.g. sweep2), or the recoverable family: rec-cas, rec-tas \
     (recovery sections, doc/RECOVERY.md) and naive-tas (the deliberately \
     non-recoverable baseline)."
  in
  Arg.(value & opt string "fig2" & info [ "protocol"; "p" ] ~docv:"PROTO" ~doc)

(* The consensus instance under test (--protocol, -f, -t, -n) as the
   checker setup of trace, explore, replay, falsify and critical. *)
let instance_term =
  let make name f t n =
    Result.bind (Campaign.Spec.resolve_protocol name) (fun protocol ->
        validated (fun () -> Check.setup protocol (Protocol.params ?t ~n_procs:n ~f ())))
  in
  Term.(const make $ protocol_arg $ f_arg $ t_arg $ n_arg)

let pp_instance ppf setup =
  Fmt.pf ppf "%s %a" setup.Check.protocol.Protocol.name Protocol.pp_params
    setup.Check.params

(* A checked execution's trace, then its verdict: the violations (exit
   1), or [clean] when there are none (exit 0). *)
let print_checked ?(clean = "No violations.") setup report =
  Fmt.pr "%a@."
    (Sim.Trace.pp ~world:(Check.world setup))
    report.Check.result.Sim.Engine.trace;
  if Check.ok report then begin
    Fmt.pr "@.%s@." clean;
    0
  end
  else begin
    Fmt.pr "@.Violations:@.";
    List.iter (fun v -> Fmt.pr "  %a@." Check.pp_violation v) report.Check.violations;
    1
  end

(* ---- experiment ---- *)

let experiment_cmd =
  let ids_arg =
    let doc = "Experiment ids to run (e.g. E3 E5); all when omitted." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let run ids quick seed =
    (* a mistyped id must not pass as "All 0 experiments reproduced" *)
    match List.find_opt (fun id -> Experiments.Registry.find id = None) ids with
    | Some id -> fail (Fmt.str "unknown experiment %S (try `ffault list')" id)
    | None ->
        let seed = Int64.of_int seed in
        let entries =
          if ids = [] then Experiments.Registry.all
          else List.filter_map Experiments.Registry.find ids
        in
        let reports = List.map (fun e -> e.Experiments.Registry.run ~quick ~seed) entries in
        List.iter (fun r -> Fmt.pr "%a@." Experiments.Report.pp r) reports;
        let failed =
          List.filter (fun r -> not r.Experiments.Report.passed) reports
        in
        if failed = [] then begin
          Fmt.pr "@.All %d experiments reproduced.@." (List.length reports);
          0
        end
        else begin
          Fmt.pr "@.%d experiment(s) NOT reproduced: %s@." (List.length failed)
            (String.concat ", " (List.map (fun r -> r.Experiments.Report.id) failed));
          1
        end
  in
  let doc = "Run the paper-reproduction and extension experiments (E1..E15)." in
  Cmd.v (Cmd.info "experiment" ~doc) Term.(const run $ ids_arg $ quick_arg $ seed_arg)

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun e -> Fmt.pr "%-4s %s@." e.Experiments.Registry.id e.Experiments.Registry.title)
      Experiments.Registry.all;
    0
  in
  let doc = "List the available experiments." in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- trace ---- *)

let trace_cmd =
  let rate_arg =
    let doc = "Overriding-fault rate in [0,1]; 1.0 = worst case." in
    Arg.(value & opt float 1.0 & info [ "rate" ] ~docv:"P" ~doc)
  in
  let run setup rate seed =
    let@ setup = setup in
    let seed64 = Int64.of_int seed in
    let injector =
      if rate >= 1.0 then Fault.Injector.always Fault.Fault_kind.Overriding
      else if rate <= 0.0 then Fault.Injector.never
      else Fault.Injector.probabilistic ~seed:seed64 ~p:rate Fault.Fault_kind.Overriding
    in
    let report =
      Check.run setup ~scheduler:(Sim.Scheduler.random ~seed:seed64) ~injector ()
    in
    Fmt.pr "%s under %a, seed %d:@.@." (Check.setup_name setup) Protocol.pp_params
      setup.Check.params seed;
    print_checked ~clean:"No violations: all processes decided consistently." setup report
  in
  let merge_cmd =
    let out_arg =
      let doc = "Merged trace output file." in
      Arg.(
        value & opt string "trace-merged.json" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
    in
    let files_arg =
      let doc = "Chrome trace files to merge (one pid row each, in argument order)." in
      Arg.(non_empty & pos_all file [] & info [] ~docv:"TRACE.json" ~doc)
    in
    let read_file path =
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    let run out files =
      let rec load acc = function
        | [] -> Ok (List.rev acc)
        | path :: rest -> (
            match Campaign.Json.of_string (read_file path) with
            | Error m -> Error (Fmt.str "%s: %s" path m)
            | Ok j ->
                let label = Filename.remove_extension (Filename.basename path) in
                load ((label, Campaign.Trace_merge.of_json j) :: acc) rest
            | exception Sys_error m -> Error m)
      in
      match load [] files with
      | Error m -> fail m
      | Ok rows ->
          Campaign.Trace_merge.write out rows;
          Fmt.pr "wrote %s (%d process row(s), %d event(s)) — open in chrome://tracing@."
            out (List.length rows)
            (List.fold_left (fun n (_, evs) -> n + List.length evs) 0 rows);
          0
    in
    let doc =
      "Merge per-process Chrome traces (worker --trace outputs, a serve --trace file) \
       into one multi-process timeline, one pid row per input."
    in
    Cmd.v (Cmd.info "merge" ~doc) Term.(const run $ out_arg $ files_arg)
  in
  let doc =
    "Run one adversarial execution and print its trace (default), or merge Chrome \
     traces (trace merge)."
  in
  Cmd.group
    ~default:Term.(const run $ instance_term $ rate_arg $ seed_arg)
    (Cmd.info "trace" ~doc) [ merge_cmd ]

(* ---- explore ---- *)

let explore_cmd =
  let max_exec_arg =
    let doc = "Execution cap for the exhaustive search." in
    Arg.(value & opt int 500_000 & info [ "max-executions" ] ~docv:"N" ~doc)
  in
  let shrink_arg =
    let doc = "Minimize the witness decision vector before printing its trace." in
    Arg.(value & flag & info [ "shrink" ] ~doc)
  in
  let run setup max_exec shrink =
    let@ setup = setup in
    let stats = Dfs.explore ~max_executions:max_exec ~max_witnesses:3 setup in
    Fmt.pr "%a: %a@." pp_instance setup Dfs.pp_stats stats;
    match stats.Dfs.witnesses with
    | [] ->
        if stats.Dfs.truncated then
          Fmt.pr "No witness found, but the search was truncated (inconclusive).@."
        else Fmt.pr "Exhaustively verified: no consensus violation exists in this model.@.";
        0
    | w :: _ ->
        let decisions, report =
          if shrink then Ffault_verify.Shrink.witness_report setup w.Dfs.decisions
          else (w.Dfs.decisions, w.Dfs.report)
        in
        Fmt.pr "@.%s witness (decisions [%a] \xe2\x80\x94 replay with `ffault replay'):@."
          (if shrink then "Shrunk" else "First")
          (Fmt.array ~sep:Fmt.comma Fmt.int)
          decisions;
        print_checked setup report
  in
  let doc = "Bounded-exhaustive model checking over schedules and fault choices." in
  Cmd.v (Cmd.info "explore" ~doc) Term.(const run $ instance_term $ max_exec_arg $ shrink_arg)

(* ---- replay ---- *)

let replay_cmd =
  let decisions_arg =
    let doc = "Comma-separated decision vector from a previous `explore' witness." in
    Arg.(value & opt string "" & info [ "decisions" ] ~docv:"D,D,..." ~doc)
  in
  let run setup decisions =
    let@ setup = setup in
    let@ vector =
      if decisions = "" then Ok [||]
      else
        try
          Ok
            (String.split_on_char ',' decisions
            |> List.map (fun s -> int_of_string (String.trim s))
            |> Array.of_list)
        with Failure _ -> Error "--decisions expects a comma-separated list of integers"
    in
    print_checked setup (Dfs.replay setup vector)
  in
  let doc = "Replay a decision vector (an `explore' witness) and print its trace." in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ instance_term $ decisions_arg)

(* ---- falsify ---- *)

let falsify_cmd =
  let attempts_arg =
    let doc = "Attempt cap for the portfolio search." in
    Arg.(value & opt int 10_000 & info [ "max-attempts" ] ~docv:"N" ~doc)
  in
  let run setup attempts seed =
    let@ setup = setup in
    let o =
      Ffault_verify.Falsify.falsify ~max_attempts:attempts ~seed:(Int64.of_int seed) setup
    in
    Fmt.pr "%a: %a@." pp_instance setup Ffault_verify.Falsify.pp_outcome o;
    match o.Ffault_verify.Falsify.witness with
    | None -> 0
    | Some (_, _, report) ->
        Fmt.pr "@.";
        print_checked setup report
  in
  let doc = "Randomized portfolio falsification (for instances too large for `explore')." in
  Cmd.v (Cmd.info "falsify" ~doc) Term.(const run $ instance_term $ attempts_arg $ seed_arg)

(* ---- critical ---- *)

let critical_cmd =
  let reduced_arg =
    let doc = "Run in the reduced model with this process always faulty." in
    Arg.(value & opt (some int) None & info [ "reduced" ] ~docv:"PROC" ~doc)
  in
  let run setup reduced =
    let@ setup = setup in
    let result = Ffault_impossibility.Critical.find ?reduced_faulty_proc:reduced setup in
    Fmt.pr "%a:@.%a@." pp_instance setup Ffault_impossibility.Critical.pp_result result;
    match result with
    | Ffault_impossibility.Critical.Critical _
    | Ffault_impossibility.Critical.Disagreement _ ->
        0
    | Ffault_impossibility.Critical.Not_found _ -> 1
  in
  let doc =
    "Walk the valency tree to a critical state (or to a disagreeing execution) \xe2\x80\x94 \
     the Theorem 18 proof, executable."
  in
  Cmd.v (Cmd.info "critical" ~doc) Term.(const run $ instance_term $ reduced_arg)

(* ---- severity ---- *)

let severity_cmd =
  let run () =
    let module Severity = Ffault_hoare.Severity in
    let names = [ "standard"; "overriding"; "silent"; "invisible"; "arbitrary" ] in
    let matrix = Severity.taxonomy_matrix () in
    Fmt.pr "Semantic severity relations between the CAS postconditions@.";
    Fmt.pr "(row vs column: < less severe, > more severe, \xe2\x89\xa1 equivalent, \xe2\x88\xa5 \
            incomparable)@.@.";
    (* pad by display width: the relation glyphs are multibyte UTF-8 *)
    let pad w s =
      let display =
        let n = ref 0 in
        String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr n) s;
        !n
      in
      s ^ String.make (max 0 (w - display)) ' '
    in
    Fmt.pr "%s" (pad 12 "");
    List.iter (fun n -> Fmt.pr "%s" (pad 12 n)) names;
    Fmt.pr "@.";
    List.iter
      (fun a ->
        Fmt.pr "%s" (pad 12 a);
        List.iter
          (fun b ->
            let _, _, r = List.find (fun (x, y, _) -> x = a && y = b) matrix in
            Fmt.pr "%s" (pad 12 (Fmt.str "%a" Severity.pp_relation r)))
          names;
        Fmt.pr "@.")
      names;
    0
  in
  let doc = "Print the fault-severity matrix (decided exhaustively over a finite universe)." in
  Cmd.v (Cmd.info "severity" ~doc) Term.(const run $ const ())

(* ---- hierarchy ---- *)

let hierarchy_cmd =
  let max_f_arg =
    let doc = "Largest f to tabulate." in
    Arg.(value & opt int 4 & info [ "max-f" ] ~docv:"F" ~doc)
  in
  let runs_arg =
    let doc = "Randomized runs per construction check." in
    Arg.(value & opt int 300 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let run max_f runs t seed =
    let t = Option.value t ~default:1 in
    let rows =
      Ffault_impossibility.Hierarchy.table ~runs ~seed:(Int64.of_int seed) ~t ~max_f ()
    in
    List.iter (fun r -> Fmt.pr "%a@." Ffault_impossibility.Hierarchy.pp_row r) rows;
    if List.for_all (fun r -> r.Ffault_impossibility.Hierarchy.consensus_number <> None) rows
    then 0
    else 1
  in
  let doc = "Compute the faulty-CAS consensus hierarchy table." in
  Cmd.v (Cmd.info "hierarchy" ~doc)
    Term.(const run $ max_f_arg $ runs_arg $ t_arg $ seed_arg)

(* ---- multicore ---- *)

let multicore_cmd =
  let domains_arg =
    let doc = "Number of domains (hardware threads)." in
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"D" ~doc)
  in
  let runs_arg =
    let doc = "Parallel consensus instances to execute." in
    Arg.(value & opt int 1000 & info [ "runs" ] ~docv:"N" ~doc)
  in
  let rate_arg =
    let doc = "Per-CAS fault probability." in
    Arg.(value & opt float 0.3 & info [ "rate" ] ~docv:"P" ~doc)
  in
  let kind_arg =
    let doc =
      "Fault kind to inject: overriding (unconditional write), silent (write dropped), or \
       nonresponsive (the CAS never returns — requires a deadline; see --deadline)."
    in
    Arg.(
      value
      & opt (enum [ ("overriding", `Overriding); ("silent", `Silent); ("nonresponsive", `Nonresponsive) ]) `Overriding
      & info [ "kind" ] ~docv:"KIND" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-run wall-clock deadline in seconds; a domain still undecided when it expires \
       reports a timeout instead of hanging. Defaults to 1.0 for --kind nonresponsive \
       (which cannot terminate without one), else none."
    in
    Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let run f t domains runs rate kind deadline seed =
    let module R = Ffault_runtime in
    let t = Option.value t ~default:1 in
    let protocol = R.Consensus_mc.Staged { f; t } in
    let style, deadline_s =
      match kind with
      | `Overriding -> (R.Faulty_cas.Override, deadline)
      | `Silent -> (R.Faulty_cas.Suppress, deadline)
      | `Nonresponsive ->
          (* Hang without a deadline can never end; default rather than die. *)
          (R.Faulty_cas.Hang, Some (Option.value deadline ~default:1.0))
    in
    let config i =
      R.Consensus_mc.config
        ~plan_for:(fun o ->
          R.Faulty_cas.plan_probabilistic
            ~seed:(Int64.of_int ((seed * 1_000_003) + (i * 31) + o))
            ~p:rate)
        ~style ?deadline_s ~n_domains:domains protocol
    in
    (* a run builds its plans lazily, so build one here to check the rate *)
    let@ () =
      validated (fun () ->
          if runs < 1 then invalid_arg "--runs must be at least 1";
          ignore ((config 1).R.Consensus_mc.plan_for 0))
    in
    let violations = ref 0 in
    let timeouts = ref 0 in
    let faults = ref 0 in
    let started = Unix.gettimeofday () in
    for i = 1 to runs do
      let mc = R.Consensus_mc.execute (config i) in
      if not (mc.R.Consensus_mc.agreed && mc.R.Consensus_mc.valid) then incr violations;
      timeouts := !timeouts + mc.R.Consensus_mc.timeouts;
      faults := !faults + Array.fold_left ( + ) 0 mc.R.Consensus_mc.faults_per_object
    done;
    let elapsed = Unix.gettimeofday () -. started in
    Fmt.pr
      "%a on %d domains: %d runs, %d violations, %d timed-out domain(s), %d observable \
       faults, %.2f s (%.0f decides/s)@."
      R.Consensus_mc.pp_protocol protocol domains runs !violations !timeouts !faults elapsed
      (float_of_int runs /. elapsed);
    if !violations = 0 then 0 else 1
  in
  let doc = "Run the Fig. 3 protocol on real domains with injected faults." in
  Cmd.v (Cmd.info "multicore" ~doc)
    Term.(
      const run $ f_arg $ t_arg $ domains_arg $ runs_arg $ rate_arg $ kind_arg
      $ deadline_arg $ seed_arg)

(* ---- campaign ---- *)

let campaign_root_arg =
  let doc = "Root directory for campaign artifacts." in
  Arg.(value & opt string "_campaigns" & info [ "root" ] ~docv:"DIR" ~doc)

let campaign_name_arg =
  let doc = "Campaign name (artifact directory under the root)." in
  Arg.(value & opt string "campaign" & info [ "name" ] ~docv:"NAME" ~doc)

let campaign_domains_arg =
  let doc = "Worker domains for the trial pool (0 = recommended count)." in
  Arg.(value & opt int 0 & info [ "domains" ] ~docv:"D" ~doc)

let resolve_domains d = if d <= 0 then Ffault_runtime.Runner.recommended_domains () else d

(* Supervision flags, shared by run, resume and serve. *)

let deadline_flag_arg =
  let doc =
    "Per-trial wall-clock deadline in seconds: a trial still running when it expires is \
     cancelled, retried (see --max-retries), and eventually journaled as a timeout. \
     Without it a trial runs until it decides or its step budget ends it, with no \
     retries or quarantine."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let max_retries_arg =
  let doc = "Deadline-cancelled attempts to retry (seed-perturbed backoff) before giving up." in
  Arg.(
    value
    & opt int Campaign.Pool.(default_supervision.max_retries)
    & info [ "max-retries" ] ~docv:"N" ~doc)

let quarantine_after_arg =
  let doc =
    "Give-ups in one grid cell before the cell degrades: its remaining trials are \
     journaled as quarantined without running."
  in
  Arg.(
    value
    & opt int Campaign.Pool.(default_supervision.quarantine_after)
    & info [ "quarantine-after" ] ~docv:"K" ~doc)

(* The supervision flags as the record the pool runs under and the
   coordinator ships to its workers. *)
let supervision_term =
  let make deadline max_retries quarantine_after =
    validated (fun () ->
        Campaign.Pool.supervision ?deadline_s:deadline ~max_retries ~quarantine_after ())
  in
  Term.(const make $ deadline_flag_arg $ max_retries_arg $ quarantine_after_arg)

(* Observability flags, shared by run, resume and serve. *)

let progress_arg =
  let doc = "Force the live progress line on (default: auto — on when stderr is a TTY)." in
  Arg.(value & flag & info [ "progress" ] ~doc)

let quiet_arg =
  let doc = "Suppress the live progress line and its final summary." in
  Arg.(value & flag & info [ "quiet" ] ~doc)

let trace_arg =
  let doc =
    "Record a span trace of the whole campaign (pool chunks, trials, journal writes) and \
     write it to $(docv) as Chrome trace-event JSON — open it in chrome://tracing or \
     https://ui.perfetto.dev."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

type observe = { progress : bool; quiet : bool; trace : string option }

(* [trace] is the command's own --trace flag: serve documents it
   differently from run and resume. *)
let observe_term trace =
  Term.(
    const (fun progress quiet trace -> { progress; quiet; trace })
    $ progress_arg $ quiet_arg $ trace)

(* Run a campaign body under [obs]: the tracer on when --trace asks for
   it, and the live progress line over [spec]'s grid until [k] returns.
   [k] gets the hooks Pool.run_dir and Coordinator.serve both take. *)
let with_live obs spec k =
  Option.iter (fun _ -> Telemetry.Tracer.enable ()) obs.trace;
  let live = Campaign.Live.create spec in
  let reporter =
    if (not obs.quiet) && (obs.progress || Telemetry.Progress.isatty stderr) then
      Some
        (Telemetry.Progress.start ~oc:stderr
           ~render:(fun () -> Campaign.Live.render live)
           ())
    else None
  in
  let result =
    k
      ~on_skip:(fun () -> Campaign.Live.on_skip live)
      ~observe:(fun r -> Campaign.Live.on_record live r)
      ~on_warn:(fun m -> Fmt.epr "warning: %s@." m)
  in
  Option.iter Telemetry.Progress.stop reporter;
  result

let run_campaign ~resume ~root ~domains ~supervision obs spec =
  let domains = resolve_domains domains in
  Fmt.pr "%a@.grid: %d cells × %d trials = %d trials, %d domains@." Campaign.Spec.pp spec
    (Campaign.Grid.n_cells spec) spec.Campaign.Spec.trials
    (Campaign.Grid.total_trials spec) domains;
  let result =
    with_live obs spec (fun ~on_skip ~observe ~on_warn ->
        Campaign.Pool.run_dir ~domains ~supervision ~resume ~root ~on_skip ~observe ~on_warn
          spec)
  in
  Option.iter
    (fun path ->
      Telemetry.Tracer.disable ();
      let events = Telemetry.Tracer.drain () in
      Campaign.Trace_merge.write path [ ("campaign", events) ];
      Fmt.pr "trace: %s (%d events, %d dropped) — open in chrome://tracing or Perfetto@."
        path (List.length events)
        (Telemetry.Tracer.dropped_count ()))
    obs.trace;
  match result with
  | Error m -> fail m
  | Ok summary ->
      Fmt.pr "%a@.artifacts: %s@." Campaign.Pool.pp_summary summary
        (Campaign.Checkpoint.campaign_dir ~root spec);
      0

(* Spec axis flags, shared by run and serve. *)

let spec_file_arg =
  let doc = "Read the campaign spec from $(docv) (key = value lines; see doc/CAMPAIGNS.md). \
             Inline axis flags are ignored when given." in
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"FILE" ~doc)

let f_list_arg =
  let doc = "Fault-budget axis: comma list / lo..hi ranges (e.g. 1..3)." in
  Arg.(value & opt string "1" & info [ "f"; "faults" ] ~docv:"LIST" ~doc)

let t_list_arg =
  let doc = "Per-object bound axis (integers or `unbounded')." in
  Arg.(value & opt string "unbounded" & info [ "t"; "bound" ] ~docv:"LIST" ~doc)

let n_list_arg =
  let doc = "Process-count axis." in
  Arg.(value & opt string "3" & info [ "n"; "procs" ] ~docv:"LIST" ~doc)

let kinds_arg =
  let doc = "Fault-kind axis (overriding, silent, invisible, arbitrary, nonresponsive, \
             relaxation)." in
  Arg.(value & opt string "overriding" & info [ "kinds" ] ~docv:"LIST" ~doc)

let rates_arg =
  let doc = "Fault-rate axis in [0,1]." in
  Arg.(value & opt string "0.5" & info [ "rates" ] ~docv:"LIST" ~doc)

let crashes_arg =
  let doc =
    "Crash axis: per-process crash-restart caps to sweep (0 = crash-free, the default). \
     Cells with crashes > 0 run the protocol's recovery section on restart \
     (doc/RECOVERY.md)."
  in
  Arg.(value & opt string "0" & info [ "crashes" ] ~docv:"LIST" ~doc)

let crash_rates_arg =
  let doc = "Crash-rate axis in [0,1]: per-operation crash probability for the seeded \
             crash plan." in
  Arg.(value & opt string "0.0" & info [ "crash-rates" ] ~docv:"LIST" ~doc)

let persistence_arg =
  let doc = "Persistence-mode axis: comma list of `all', `lossy', or `only:<obj>,..'." in
  Arg.(value & opt string "all" & info [ "persistence" ] ~docv:"LIST" ~doc)

let crash_seed_arg =
  let doc =
    "Extra seed mixed into each trial's crash plan, so crash schedules re-roll \
     independently of the fault schedules."
  in
  Arg.(value & opt int 0 & info [ "crash-seed" ] ~docv:"SEED" ~doc)

let trials_arg =
  let doc = "Trials per grid cell." in
  Arg.(value & opt int 100 & info [ "trials" ] ~docv:"K" ~doc)

(* The campaign spec: the --spec file when given, else the axis flags. *)
let spec_term =
  let make spec_file name protocol f t n kinds rates crashes crash_rates persistence
      crash_seed trials seed =
    match spec_file with
    | Some path -> Campaign.Spec.of_file path
    | None ->
        let ( let* ) = Result.bind in
        let* f = Campaign.Spec.ints_of_string f in
        let* t = Campaign.Spec.t_values_of_string t in
        let* n = Campaign.Spec.ints_of_string n in
        let* kinds = Campaign.Spec.kinds_of_string kinds in
        let* rates = Campaign.Spec.rates_of_string rates in
        let* crashes = Campaign.Spec.ints_of_string crashes in
        let* crash_rates = Campaign.Spec.rates_of_string crash_rates in
        let* persistence = Campaign.Spec.persistence_of_string persistence in
        Campaign.Spec.validate
          {
            Campaign.Spec.name;
            protocol;
            f_values = f;
            t_values = t;
            n_values = n;
            kinds;
            rates;
            crashes;
            crash_rates;
            persistence;
            crash_seed = Int64.of_int crash_seed;
            trials;
            seed = Int64.of_int seed;
          }
  in
  Term.(
    const make $ spec_file_arg $ campaign_name_arg $ protocol_arg $ f_list_arg $ t_list_arg
    $ n_list_arg $ kinds_arg $ rates_arg $ crashes_arg $ crash_rates_arg $ persistence_arg
    $ crash_seed_arg $ trials_arg $ seed_arg)

let campaign_run_cmd =
  let run spec root domains supervision obs =
    let@ spec = spec in
    let@ supervision = supervision in
    run_campaign ~resume:false ~root ~domains ~supervision obs spec
  in
  let doc = "Run a fault-injection campaign over a parameter grid, journaling every trial." in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ spec_term $ campaign_root_arg $ campaign_domains_arg $ supervision_term
      $ observe_term trace_arg)

let campaign_resume_cmd =
  let run name root domains supervision obs =
    let@ spec = Campaign.Checkpoint.load_manifest ~dir:(Filename.concat root name) in
    let@ supervision = supervision in
    run_campaign ~resume:true ~root ~domains ~supervision obs spec
  in
  let doc =
    "Resume an interrupted campaign: journaled trials are skipped, the rest executed."
  in
  Cmd.v (Cmd.info "resume" ~doc)
    Term.(
      const run $ campaign_name_arg $ campaign_root_arg $ campaign_domains_arg
      $ supervision_term $ observe_term trace_arg)

(* ---- distributed campaign: serve + worker ---- *)

let endpoint_conv =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Dist.Transport.endpoint_of_string s)
  in
  Arg.conv (parse, Dist.Transport.pp_endpoint)

let campaign_serve_cmd =
  let listen_arg =
    let doc = "Endpoint to listen on: unix:PATH or tcp:HOST:PORT." in
    Arg.(
      required & opt (some endpoint_conv) None & info [ "listen" ] ~docv:"ENDPOINT" ~doc)
  in
  let lease_trials_arg =
    let doc = "Trials per lease shard handed to a worker." in
    Arg.(value & opt int 1000 & info [ "lease-trials" ] ~docv:"K" ~doc)
  in
  let lease_timeout_arg =
    let doc =
      "Seconds of silence before a worker's leases expire and their shards are re-leased."
    in
    Arg.(value & opt float 30.0 & info [ "lease-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let hb_interval_arg =
    let doc = "Heartbeat cadence imposed on workers (must be under the lease timeout)." in
    Arg.(value & opt float 2.0 & info [ "hb-interval" ] ~docv:"SECONDS" ~doc)
  in
  let max_workers_arg =
    let doc =
      "Heartbeat slots: the first N connected workers each get one, and a worker whose \
       slot stays silent past the lease timeout is dropped. Every connection is \
       accepted; a worker beyond N is watched by lease expiry alone."
    in
    Arg.(value & opt int 64 & info [ "max-workers" ] ~docv:"N" ~doc)
  in
  let resume_serve_arg =
    let doc = "Resume an interrupted campaign instead of starting fresh." in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let status_arg =
    let doc =
      "Serve a read-only HTTP status endpoint (GET /status, /workers, /metrics, \
       /events) on $(docv) from inside the coordinator loop — scrape it with curl or \
       `ffault campaign status'."
    in
    Arg.(
      value & opt (some endpoint_conv) None & info [ "status" ] ~docv:"ENDPOINT" ~doc)
  in
  let serve_trace_arg =
    let doc =
      "Record spans in the coordinator and merge them with the span batches workers \
       piggyback on their heartbeats into one multi-process Chrome trace at $(docv)."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run spec root listen lease_trials lease_timeout hb_interval max_workers resume status
      supervision obs =
    let@ spec = spec in
    let@ supervision = supervision in
    let@ cfg =
      validated (fun () ->
          Dist.Coordinator.config ~lease_trials ~lease_timeout_s:lease_timeout
            ~hb_interval_s:hb_interval ~max_workers ~supervision listen)
    in
    Fmt.pr "%a@.grid: %d cells × %d trials = %d trials, serving on %a@." Campaign.Spec.pp
      spec (Campaign.Grid.n_cells spec) spec.Campaign.Spec.trials
      (Campaign.Grid.total_trials spec) Dist.Transport.pp_endpoint listen;
    let result =
      with_live obs spec (fun ~on_skip ~observe ~on_warn ->
          Dist.Coordinator.serve ~resume ~root ~on_skip ~observe ~on_warn
            ~on_event:(fun m -> if not obs.quiet then Fmt.epr "[serve] %s@." m)
            ?status cfg spec)
    in
    match result with
    | Error m -> fail m
    | Ok s ->
        Fmt.pr "%a@." Campaign.Pool.pp_summary s.Dist.Coordinator.pool;
        Fmt.pr
          "leases: %d granted, %d completed, %d expired; %d worker(s)@.artifacts: %s@."
          s.Dist.Coordinator.leases_granted s.Dist.Coordinator.leases_completed
          s.Dist.Coordinator.leases_expired
          (List.length s.Dist.Coordinator.workers)
          (Campaign.Checkpoint.campaign_dir ~root spec);
        Option.iter
          (fun path ->
            (* one pid row per process: the coordinator's own spans
               plus whatever each worker shipped on its heartbeats *)
            let rows =
              ("coordinator", Telemetry.Tracer.drain ()) :: s.Dist.Coordinator.worker_spans
            in
            Campaign.Trace_merge.write path rows;
            Fmt.pr "trace: %s (%d process row(s)) — open in chrome://tracing or Perfetto@."
              path (List.length rows))
          obs.trace;
        0
  in
  let doc =
    "Coordinate a distributed campaign: shard the grid into leases served to ffault \
     worker processes over a socket; the journal stays exactly-once across worker \
     crashes (doc/DISTRIBUTED.md)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      const run $ spec_term $ campaign_root_arg $ listen_arg $ lease_trials_arg
      $ lease_timeout_arg $ hb_interval_arg $ max_workers_arg $ resume_serve_arg
      $ status_arg $ supervision_term $ observe_term serve_trace_arg)

let worker_cmd =
  let connect_arg =
    let doc = "Coordinator endpoint: unix:PATH or tcp:HOST:PORT." in
    Arg.(
      required & opt (some endpoint_conv) None & info [ "connect" ] ~docv:"ENDPOINT" ~doc)
  in
  let worker_name_arg =
    let doc = "Worker identity in the coordinator's Workers report (default hostname-pid)." in
    Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)
  in
  let worker_trace_arg =
    let doc =
      "Record this worker's spans: ship them to the coordinator on heartbeats (for \
       `serve --trace' merging) and also write this process's own Chrome trace to \
       $(docv) on exit."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let run connect name domains trace quiet =
    let domains = resolve_domains domains in
    let@ cfg = validated (fun () -> Dist.Worker.config ?name ~domains connect) in
    Option.iter (fun _ -> Telemetry.Tracer.enable ()) trace;
    match
      Dist.Worker.run
        ~on_event:(fun m -> if not quiet then Fmt.epr "[worker] %s@." m)
        ~on_warn:(fun m -> Fmt.epr "[worker] warn: %s@." m)
        ?trace_path:trace cfg
    with
    | Error m -> fail m
    | Ok s ->
        Fmt.pr
          "worker %s: %d lease(s), %d trial(s) run, %d already journaled, \
           %d reconnect(s) — %s@."
          cfg.Dist.Worker.name s.Dist.Worker.leases_run s.Dist.Worker.trials_run
          s.Dist.Worker.trials_skipped s.Dist.Worker.reconnects s.Dist.Worker.stop_reason;
        Option.iter (fun path -> Fmt.pr "trace: %s@." path) trace;
        0
  in
  let doc =
    "Run trials for a distributed campaign coordinator (see ffault campaign serve)."
  in
  Cmd.v (Cmd.info "worker" ~doc)
    Term.(
      const run $ connect_arg $ worker_name_arg $ campaign_domains_arg $ worker_trace_arg
      $ quiet_arg)

let campaign_status_cmd =
  let connect_arg =
    let doc = "The coordinator's status endpoint (the value of its --status flag)." in
    Arg.(
      required & opt (some endpoint_conv) None & info [ "connect" ] ~docv:"ENDPOINT" ~doc)
  in
  let format_arg =
    let doc = "Output format: text (human summary) or json (the raw /status body)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let watch_arg =
    let doc =
      "Poll every $(docv) seconds until the campaign is done or the coordinator goes \
       away."
    in
    Arg.(
      value
      & opt (some float) None ~vopt:(Some 2.0)
      & info [ "watch" ] ~docv:"SECONDS" ~doc)
  in
  let get_arg =
    let doc =
      "Fetch this endpoint path instead of the status summary (e.g. /metrics, \
       /workers, /events) and print the body verbatim."
    in
    Arg.(value & opt (some string) None & info [ "get" ] ~docv:"PATH" ~doc)
  in
  let member = Campaign.Json.member in
  let jint j n = match Option.bind (member n j) Campaign.Json.get_int with
    | Some i -> i
    | None -> 0
  in
  let jflt j n =
    match Option.bind (member n j) Campaign.Json.get_float with Some f -> f | None -> 0.0
  in
  let jstr j n =
    match Option.bind (member n j) Campaign.Json.get_str with Some s -> s | None -> "?"
  in
  let render j =
    Fmt.pr "campaign %s (%s): %s@." (jstr j "campaign") (jstr j "protocol")
      (jstr j "state");
    let total = jint j "total" and done_ = jint j "done" in
    Fmt.pr "trials: %d/%d journaled (%.1f%%), %d failure(s), %d timeout(s), %d quarantined@."
      done_ total
      (if total = 0 then 0.0 else 100.0 *. float_of_int done_ /. float_of_int total)
      (jint j "failures") (jint j "timeouts") (jint j "quarantined");
    Fmt.pr "rate: %.1f trials/s, elapsed %.1fs%s@." (jflt j "trials_per_s")
      (jflt j "elapsed_s")
      (match Option.bind (member "eta_s" j) Campaign.Json.get_float with
      | Some eta -> Fmt.str ", eta %.1fs" eta
      | None -> "");
    match member "leases" j with
    | Some l ->
        Fmt.pr
          "workers: %d connected; leases: %d outstanding, %d pending (%d granted, %d \
           completed, %d expired)@."
          (jint j "workers_connected") (jint l "outstanding") (jint l "pending")
          (jint l "granted") (jint l "completed") (jint l "expired")
    | None -> ()
  in
  let run connect format watch get =
    let fetch path =
      match Dist.Http.get connect ~path with
      | Error _ as e -> e
      | Ok r when r.Dist.Http.code <> 200 ->
          Error (Fmt.str "HTTP %d: %s" r.Dist.Http.code (String.trim r.Dist.Http.body))
      | Ok r -> Ok r.Dist.Http.body
    in
    (* one poll; [Ok true] = campaign still running (worth polling again) *)
    let once () =
      match get with
      | Some path ->
          Result.map
            (fun body ->
              print_string body;
              flush stdout;
              true)
            (fetch path)
      | None ->
          Result.bind (fetch "/status") (fun body ->
              match Campaign.Json.of_string body with
              | Error m -> Error (Fmt.str "unparsable /status body: %s" m)
              | Ok j ->
                  (match format with
                  | `Json ->
                      print_string body;
                      flush stdout
                  | `Text -> render j);
                  Ok (jstr j "state" = "running"))
    in
    match watch with
    | None -> (
        match once () with Ok _ -> 0 | Error m -> fail m)
    | Some interval ->
        (* a fetch error after at least one success is the coordinator
           finishing and going away — a clean end to the watch *)
        let rec loop polled =
          match once () with
          | Ok true ->
              Unix.sleepf (Float.max 0.1 interval);
              loop true
          | Ok false -> 0
          | Error m -> if polled then 0 else fail m
        in
        loop false
  in
  let doc =
    "Scrape a running coordinator's status endpoint (see campaign serve --status)."
  in
  Cmd.v (Cmd.info "status" ~doc)
    Term.(const run $ connect_arg $ format_arg $ watch_arg $ get_arg)

let campaign_report_cmd =
  let run name root =
    let dir = Filename.concat root name in
    match Campaign.Report.of_dir ~dir with
    | Error m -> fail m
    | Ok report ->
        Fmt.pr "%s" (Campaign.Report.to_markdown report);
        Campaign.Report.write ~dir report;
        Fmt.pr "@.Wrote %s/report.md and report.json@." dir;
        0
  in
  let doc = "Aggregate a campaign journal into per-cell statistics (markdown + JSON)." in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ campaign_name_arg $ campaign_root_arg)

let campaign_diff_cmd =
  let dir_a_arg =
    let doc = "Baseline campaign directory." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR_A" ~doc)
  in
  let dir_b_arg =
    let doc = "Candidate campaign directory." in
    Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR_B" ~doc)
  in
  let tolerance_arg =
    let doc = "Failure-rate increase below this is sampling noise." in
    Arg.(
      value
      & opt float Campaign.Report.default_tolerance
      & info [ "tolerance" ] ~docv:"EPS" ~doc)
  in
  let run dir_a dir_b tolerance =
    match (Campaign.Report.of_dir ~dir:dir_a, Campaign.Report.of_dir ~dir:dir_b) with
    | Error m, _ | _, Error m -> fail ~code:2 m
    | Ok a, Ok b ->
        let d = Campaign.Report.diff ~tolerance a b in
        Fmt.pr "%a" Campaign.Report.pp_diff d;
        if d.Campaign.Report.regressions = 0 then 0 else 1
  in
  let doc = "Compare two campaign runs cell-by-cell; exit 1 on regressions." in
  Cmd.v (Cmd.info "diff" ~doc) Term.(const run $ dir_a_arg $ dir_b_arg $ tolerance_arg)

let campaign_cmd =
  let doc = "Parallel fault-injection campaigns with persistent, resumable journals." in
  Cmd.group (Cmd.info "campaign" ~doc)
    [
      campaign_run_cmd; campaign_resume_cmd; campaign_serve_cmd; campaign_status_cmd;
      campaign_report_cmd; campaign_diff_cmd;
    ]

(* ---- lint ---- *)

let lint_cmd =
  let format_arg =
    let doc = "Output format: text (grep-able lines) or json (CI artifact shape)." in
    Arg.(value & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
         & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let rules_arg =
    let doc = "Run only this comma-separated subset of rules." in
    Arg.(value & opt string "" & info [ "rules" ] ~docv:"R,..." ~doc)
  in
  let list_rules_arg =
    let doc = "List the rules (name, layer, severity, summary) and exit." in
    Arg.(value & flag & info [ "list-rules" ] ~doc)
  in
  let explain_arg =
    let doc =
      "Print one rule's summary, rationale and an example finding, then exit."
    in
    Arg.(value & opt (some string) None & info [ "explain" ] ~docv:"RULE" ~doc)
  in
  let paths_arg =
    let doc = "Files or directories to lint (default: lib bin test bench examples)." in
    Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)
  in
  let unknown_rule name = Fmt.str "unknown rule %S (see `ffault lint --list-rules')" name in
  let run format rules list_rules explain paths =
    if list_rules then begin
      List.iter
        (fun r ->
          Fmt.pr "%-22s %-6s %-8s %s@." r.Lint.Rule.name
            (Lint.Rule.layer_to_string r.Lint.Rule.layer)
            (Lint.Finding.severity_to_string r.Lint.Rule.severity)
            r.Lint.Rule.summary)
        Lint.Rule.all;
      0
    end
    else
      match explain with
      | Some name -> (
          match Lint.Rule.find name with
          | None -> fail ~code:2 (unknown_rule name)
          | Some r ->
              Fmt.pr "%s (%s rule, %s layer)@.@.  %s@.@.why@.  %s@.@.example@.  %s@."
                r.Lint.Rule.name
                (Lint.Finding.severity_to_string r.Lint.Rule.severity)
                (Lint.Rule.layer_to_string r.Lint.Rule.layer)
                r.Lint.Rule.summary r.Lint.Rule.rationale r.Lint.Rule.example;
              0)
      | None -> (
      let rules =
        match
          String.split_on_char ',' rules
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        with
        | [] -> Ok None
        | rs -> (
            match List.find_opt (fun r -> Lint.Rule.find r = None) rs with
            | Some bad -> Error (unknown_rule bad)
            | None -> Ok (Some rs))
      in
      match rules with
      | Error m -> fail ~code:2 m
      | Ok rules ->
          let paths =
            if paths = [] then
              List.filter Sys.file_exists [ "lib"; "bin"; "test"; "bench"; "examples" ]
            else paths
          in
          let result = Lint.Driver.run ?rules ~policy:Lint.Policy.default paths in
          (match format with
          | `Text -> Fmt.pr "%s" (Lint.Report.to_text result)
          | `Json ->
              Fmt.pr "%s@." (Campaign.Json.to_string (Lint.Report.to_json result)));
          Lint.Report.exit_code result)
  in
  let doc =
    "Statically check the fault-injection and determinism invariants over the source \
     tree: a typed-tree pass over the build's cmt files (raw-atomic, nondeterminism, \
     io-in-lib, obj-magic, poly-compare-abstract, domain-unsafe-capture) that sees \
     through aliases and opens, a parsetree pass (toplevel-mutable, catch-all, \
     effect-discipline) and mli-required. Every .ml needs a fresh cmt: run \
     `dune build @check' first. See `--list-rules' and `--explain RULE'."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(const run $ format_arg $ rules_arg $ list_rules_arg $ explain_arg $ paths_arg)

(* ---- netsim ---- *)

let netsim_cmd =
  let schedules_arg =
    let doc = "Number of seed-derived fault schedules to explore." in
    Arg.(value & opt int 1000 & info [ "schedules" ] ~docv:"N" ~doc)
  in
  let workers_arg =
    let doc = "Simulated workers." in
    Arg.(value & opt int 3 & info [ "workers" ] ~docv:"W" ~doc)
  in
  let trials_arg =
    let doc = "Trials in the simulated campaign grid." in
    Arg.(value & opt int 200 & info [ "trials" ] ~docv:"T" ~doc)
  in
  let lease_trials_arg =
    let doc = "Trials per lease (shard size)." in
    Arg.(value & opt int 32 & info [ "lease-trials" ] ~docv:"K" ~doc)
  in
  let schedule_arg =
    let doc =
      "Run only schedule index $(docv) of the sweep (the reproducer mode a \
       violation report points at) instead of exploring."
    in
    Arg.(value & opt (some int) None & info [ "schedule" ] ~docv:"I" ~doc)
  in
  let print_trace_arg =
    let doc = "Print the deterministic event trace of the run (with --schedule)." in
    Arg.(value & flag & info [ "print-trace" ] ~doc)
  in
  let break_complete_arg =
    let doc =
      "Plant the lease-retirement bug (retire a lease on Complete without \
       checking the journal) — a self-test that the search catches and \
       shrinks a real exactly-once violation."
    in
    Arg.(value & flag & info [ "break-complete" ] ~doc)
  in
  let break_fencing_arg =
    let doc =
      "Plant the epoch-fencing bug (trust a stale-epoch Complete from a \
       previous coordinator incarnation) — a self-test that the search \
       catches and shrinks a coordinator-crash violation."
    in
    Arg.(value & flag & info [ "break-fencing" ] ~doc)
  in
  let pp_violation_report (v : Netsim.Search.report) ~seed_cli =
    Fmt.pr "@.VIOLATION at schedule %d (seed %Ld): %s@." v.Netsim.Search.s_index
      v.Netsim.Search.s_seed
      (Netsim.Sim.violation_to_string v.Netsim.Search.s_violation);
    Fmt.pr "  fired atoms: %d; shrunk to %d (%d probe(s)): %s@."
      v.Netsim.Search.s_fired
      (List.length v.Netsim.Search.s_shrunk)
      v.Netsim.Search.s_probes
      (Netsim.Sim.violation_to_string v.Netsim.Search.s_shrunk_violation);
    List.iter
      (fun a -> Fmt.pr "    %s@." (Netsim.Fault_plan.atom_to_string a))
      v.Netsim.Search.s_shrunk;
    Fmt.pr "  reproduce: ffault netsim --seed %d --schedule %d --print-trace@."
      seed_cli v.Netsim.Search.s_index
  in
  let run schedules seed workers trials lease_trials schedule print_trace
      break_complete break_fencing =
    let config =
      Netsim.Sim.config ~workers ~trials ~lease_trials
        ~verify_complete:(not break_complete)
        ~fence_epochs:(not break_fencing) ()
    in
    let root = Int64.of_int seed in
    match schedule with
    | Some i ->
        let sseed = Netsim.Search.schedule_seed ~root i in
        let r = Netsim.Sim.run ~trace:print_trace config ~seed:sseed in
        if print_trace then
          List.iter (fun l -> Fmt.pr "%s@." l) r.Netsim.Sim.trace;
        Fmt.pr "schedule %d (seed %Ld): %d record(s), %d fired atom(s), %d event(s), %dms virtual@."
          i sseed
          (List.length r.Netsim.Sim.records)
          (List.length r.Netsim.Sim.fired)
          r.Netsim.Sim.events
          (r.Netsim.Sim.end_ns / 1_000_000);
        (match r.Netsim.Sim.violation with
        | None ->
            Fmt.pr "exactly-once holds@.";
            0
        | Some v ->
            Fmt.pr "VIOLATION: %s@." (Netsim.Sim.violation_to_string v);
            1)
    | None ->
        let t0 = Unix.gettimeofday () in
        let sweep =
          Netsim.Search.explore ~config ~root ~schedules ()
        in
        let dt = Unix.gettimeofday () -. t0 in
        Fmt.pr "explored %d/%d schedule(s) in %.1fs (%.0f schedules/s, %d events)@."
          sweep.Netsim.Search.explored schedules dt
          (float_of_int sweep.Netsim.Search.explored /. Float.max dt 1e-9)
          sweep.Netsim.Search.total_events;
        (match sweep.Netsim.Search.violations with
        | [] ->
            Fmt.pr "exactly-once holds on every schedule@.";
            0
        | v :: _ ->
            pp_violation_report v ~seed_cli:seed;
            1)
  in
  let doc =
    "Deterministic single-process simulation of the distributed campaign \
     layer: explore seed-derived fault schedules (drop, duplication, \
     reordering, latency, partitions, worker crashes) against the real \
     coordinator engine and check the exactly-once journal invariant, \
     shrinking any violation to a minimal fault set."
  in
  Cmd.v (Cmd.info "netsim" ~doc)
    Term.(
      const run $ schedules_arg $ seed_arg $ workers_arg $ trials_arg
      $ lease_trials_arg $ schedule_arg $ print_trace_arg $ break_complete_arg
      $ break_fencing_arg)

let main_cmd =
  let doc = "reproduction of \"Functional Faults\" (Sheffi & Petrank, 2020)" in
  let info = Cmd.info "ffault" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      experiment_cmd; list_cmd; trace_cmd; explore_cmd; replay_cmd; falsify_cmd; critical_cmd;
      severity_cmd; hierarchy_cmd; multicore_cmd; campaign_cmd; worker_cmd; netsim_cmd;
      lint_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
