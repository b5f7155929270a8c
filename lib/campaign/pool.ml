module Runner = Ffault_runtime.Runner
module Cancel = Ffault_runtime.Cancel
module Check = Ffault_verify.Consensus_check
module Engine = Ffault_sim.Engine
module Budget = Ffault_fault.Budget
module Value = Ffault_objects.Value
module Metrics = Ffault_telemetry.Metrics
module Clock = Ffault_telemetry.Clock
module Tracer = Ffault_telemetry.Tracer
module Retry = Ffault_supervise.Retry
module Quarantine = Ffault_supervise.Quarantine

let m_trials = Metrics.counter "campaign.trials"
let m_failures = Metrics.counter "campaign.failures"
let h_trial_us = Metrics.histogram "campaign.trial_us"
let m_timeouts = Metrics.counter "supervise.timeouts"
let m_retries = Metrics.counter "supervise.retries"
let m_transient = Metrics.counter "supervise.transient_infra"
let m_deterministic = Metrics.counter "supervise.deterministic_protocol"

type supervision = {
  deadline_s : float option;
  max_retries : int;
  quarantine_after : int;
}

let default_supervision =
  {
    deadline_s = None;
    max_retries = Retry.default_policy.Retry.max_retries;
    quarantine_after = 3;
  }

let supervision ?deadline_s ?max_retries ?quarantine_after () =
  (match deadline_s with
  | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
      invalid_arg "Pool.supervision: deadline_s must be finite and positive"
  | _ -> ());
  (match quarantine_after with
  | Some q when q < 1 -> invalid_arg "Pool.supervision: quarantine_after < 1"
  | _ -> ());
  {
    deadline_s;
    (* [Retry.policy] owns the rule on retry counts *)
    max_retries = (Retry.policy ?max_retries ()).Retry.max_retries;
    quarantine_after =
      Option.value quarantine_after ~default:default_supervision.quarantine_after;
  }

type tally = {
  mutable executed : int;
  mutable failures : int;
  mutable timeouts : int;
  mutable retried : int;
  mutable quarantined : int;
}

let tally () = { executed = 0; failures = 0; timeouts = 0; retried = 0; quarantined = 0 }

let count t (r : Journal.record) =
  t.executed <- t.executed + 1;
  (match r.Journal.outcome with
  | Journal.Violation -> t.failures <- t.failures + 1
  | Journal.Timeout -> t.timeouts <- t.timeouts + 1
  | Journal.Quarantined -> t.quarantined <- t.quarantined + 1
  | Journal.Pass -> ());
  t.retried <- t.retried + r.Journal.retries

type summary = {
  total : int;
  executed : int;
  skipped : int;
  failures : int;
  timeouts : int;
  retried : int;
  quarantined : int;
  wall_s : float;
  trials_per_s : float;
}

(* Tiny grids on fast machines can finish inside the wall clock's
   resolution; a naive executed/wall division then journals inf (or
   0/0 = nan). Anything under a microsecond of wall time has no
   meaningful rate — report 0 rather than a fiction. *)
let min_measurable_wall_s = 1e-6

let trials_rate ~executed ~wall_s =
  if executed <= 0 || Float.is_nan wall_s || wall_s < min_measurable_wall_s then 0.0
  else float_of_int executed /. wall_s

let summarize (t : tally) ~total ~skipped ~wall_s =
  {
    total;
    executed = t.executed;
    skipped;
    failures = t.failures;
    timeouts = t.timeouts;
    retried = t.retried;
    quarantined = t.quarantined;
    wall_s;
    trials_per_s = trials_rate ~executed:t.executed ~wall_s;
  }

let pp_summary ppf s =
  let rate =
    if s.trials_per_s > 0.0 && Float.is_finite s.trials_per_s then
      Fmt.str "%.0f trials/s" s.trials_per_s
    else "rate n/a"
  in
  let health =
    if s.timeouts = 0 && s.quarantined = 0 && s.retried = 0 then ""
    else
      Fmt.str ", %d timeout(s), %d retried, %d quarantined" s.timeouts s.retried
        s.quarantined
  in
  Fmt.pf ppf
    "%d/%d trials executed (%d already journaled), %d failures%s, %.2f s (%s)" s.executed
    s.total s.skipped s.failures health s.wall_s rate

let default_max_shrinks_per_cell = 5

(* A violating trial journals the decision vector its run recorded, so
   the line is a function of (spec, trial id) whichever executor ran it;
   a rendered [Report] minimizes each cell's first failures. *)
let record_of_result ?(retries = 0) trial (res : Shrink_on_fail.result) =
  let result = res.Shrink_on_fail.report.Check.result in
  let max_steps = Array.fold_left max 0 result.Engine.steps_taken in
  let stage =
    Array.fold_left
      (fun acc v -> match Value.stage v with Some s when s > acc -> s | _ -> acc)
      (-1) result.Engine.final_states
  in
  let outcome =
    if result.Engine.interrupted then Journal.Timeout
    else if Check.ok res.Shrink_on_fail.report then Journal.Pass
    else Journal.Violation
  in
  {
    Journal.trial = trial.Grid.id;
    cell = trial.Grid.cell;
    seed = trial.Grid.seed;
    ok = outcome = Journal.Pass;
    outcome;
    retries;
    violations =
      List.map Check.violation_to_string res.Shrink_on_fail.report.Check.violations;
    steps = result.Engine.total_steps;
    max_steps;
    stage;
    faults = Budget.total_faults result.Engine.budget;
    crash_faults = Budget.total_crashes result.Engine.budget;
    wall_us = res.Shrink_on_fail.wall_ns / 1000;
    witness =
      (if outcome = Journal.Violation then Some res.Shrink_on_fail.decisions else None);
  }

(* A trial skipped because its cell was degraded. Journaled like any
   other record so the checkpoint scan marks it done: resume must not
   resurrect trials the quarantine decided to skip. *)
let quarantined_record trial =
  {
    Journal.trial = trial.Grid.id;
    cell = trial.Grid.cell;
    seed = trial.Grid.seed;
    ok = false;
    outcome = Journal.Quarantined;
    retries = 0;
    violations = [];
    steps = 0;
    max_steps = 0;
    stage = -1;
    faults = 0;
    crash_faults = 0;
    wall_us = 0;
    witness = None;
  }

let run_trials ?(domains = 1) ?ids ?(supervision = default_supervision) ~on_record spec =
  let protocol =
    match Spec.resolve_protocol spec.Spec.protocol with
    | Ok p -> p
    | Error m -> invalid_arg ("Pool.run_trials: " ^ m)
  in
  let cells = Grid.cells spec in
  let setups = Array.map (fun c -> Grid.setup c protocol) cells in
  let quarantine =
    Quarantine.create ~threshold:supervision.quarantine_after
      ~cells:(Array.length cells) ()
  in
  let total = Grid.total_trials spec in
  (* Task k runs trial [id_of k]. Range i's first task is [firsts.(i)],
     ascending, so k's range is the last one starting at or before k
     (an empty range starts where the next one does). *)
  let ranges = Array.of_list (Option.value ids ~default:[ (0, total) ]) in
  let firsts = Array.make (Array.length ranges + 1) 0 in
  Array.iteri
    (fun i (lo, hi) ->
      if hi < lo then invalid_arg "Pool.run_trials: a range ends before it starts";
      firsts.(i + 1) <- firsts.(i) + hi - lo)
    ranges;
  let tasks = firsts.(Array.length ranges) in
  let rec range_of k lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if firsts.(mid) <= k then range_of k mid hi else range_of k lo mid
  in
  let id_of k =
    let i = range_of k 0 (Array.length ranges) in
    fst ranges.(i) + k - firsts.(i)
  in
  let tally = tally () in
  let started = Clock.now_ns () in
  (* A crash cell's trials run under a crash plan derived from the trial
     seed mixed with the spec's crash-seed, so --crash-seed re-rolls the
     crash schedules without touching the primitive-fault streams. *)
  let crash_plan_of trial =
    let cell = trial.Grid.cell in
    if cell.Grid.crashes > 0 && cell.Grid.crash_rate > 0.0 then
      Some
        (Ffault_recover.Crash_plan.make
           ~seed:(Grid.crash_plan_seed spec trial.Grid.seed)
           ~rate:cell.Grid.crash_rate)
    else None
  in
  let run_attempt ?interrupt trial =
    Shrink_on_fail.run_trial ~shrink:false ?interrupt ?crash_plan:(crash_plan_of trial)
      setups.(trial.Grid.cell_id) ~rate:trial.Grid.cell.Grid.rate ~seed:trial.Grid.seed
  in
  (* The supervised attempt loop: run under a deadline token; a timed-out
     attempt is retried (seed unchanged — the trial is deterministic, so
     only infrastructure noise can change the verdict) after a
     seed-perturbed backoff, up to [max_retries] times. Success after a
     failure classifies the failure transient-infra; exhausting the
     retries classifies the cell's behavior deterministic-protocol and
     costs the cell a quarantine strike. *)
  let run_supervised trial =
    match supervision.deadline_s with
    | None -> (run_attempt trial, 0)
    | Some deadline_s ->
        let rec attempt failed =
          let cancel = Cancel.after ~seconds:deadline_s in
          let res = run_attempt ~interrupt:(fun () -> Cancel.cancelled cancel) trial in
          if not res.Shrink_on_fail.report.Check.result.Engine.interrupted then begin
            if failed > 0 then Metrics.incr m_transient;
            (res, failed)
          end
          else begin
            Metrics.incr m_timeouts;
            let failed = failed + 1 in
            if failed <= supervision.max_retries then begin
              Metrics.incr m_retries;
              Unix.sleepf
                (float_of_int
                   (Retry.backoff_ns Retry.default_policy ~seed:trial.Grid.seed
                      ~attempt:failed)
                /. 1e9);
              attempt failed
            end
            else begin
              Metrics.incr m_deterministic;
              ignore (Quarantine.strike quarantine ~cell:trial.Grid.cell_id);
              (res, failed - 1)
            end
          end
        in
        attempt 0
  in
  let worker k =
    Tracer.with_span ~cat:"campaign" "trial" (fun () ->
        let trial = Grid.trial_of_cells spec cells (id_of k) in
        if Quarantine.degraded quarantine ~cell:trial.Grid.cell_id then
          quarantined_record trial
        else begin
          let res, retries = run_supervised trial in
          let record = record_of_result ~retries trial res in
          Metrics.incr m_trials;
          Metrics.observe h_trial_us record.Journal.wall_us;
          if record.Journal.outcome = Journal.Violation then Metrics.incr m_failures;
          record
        end)
  in
  let consume _k record =
    count tally record;
    on_record record
  in
  Runner.run_tasks ~domains ~total:tasks ~worker ~consume ();
  summarize tally ~total ~skipped:(total - tasks)
    ~wall_s:(Clock.ns_to_s (Clock.now_ns () - started))

let run_dir ?domains ?supervision ?(resume = false) ?on_skip ?(observe = fun _ -> ())
    ?(on_warn = fun _ -> ()) ~root spec =
  let ( let* ) = Result.bind in
  let* dir, st = Checkpoint.open_campaign ~resume ?on_skip ~on_warn ~root spec in
  let ids = if resume then Some (Checkpoint.remaining st) else None in
  let writer = Journal.create_writer ~path:(Checkpoint.journal_path ~dir) in
  let finally () = Journal.close_writer writer in
  match
    run_trials ?domains ?ids ?supervision
      ~on_record:(fun r ->
        Journal.append writer r;
        observe r)
      spec
  with
  | summary ->
      finally ();
      (* persist the run's metrics so `campaign report` can embed them *)
      Telemetry_io.write ~dir (Telemetry_io.snapshot ());
      Ok summary
  | exception e ->
      finally ();
      raise e
