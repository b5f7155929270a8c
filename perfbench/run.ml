(* The repository benchmark harness (README.md documents the workloads,
   metrics and modes).

     run.exe                               5 rounds of all five workloads
     run.exe --workload W --seed S --seconds T --trace 0|1
     run.exe --smoke                       every workload at ~1/100 size,
                                           untraced and traced, checks only
     run.exe ... --out FILE                also append one JSON line per run

   A run of one workload first times set-up-only repetitions (each stops
   at its first journaled record) and one warm-up repetition, then repeats
   the workload, each repetition in a fresh process, until the timed
   repetitions have taken the requested seconds (at least one), checking
   every repetition's journals after its process exits. Runs of the
   calibration kernel alternate with the probes and repetitions, whose
   timings it reports at the reference host speed (README.md, "Host
   speed"). A traced run repeats traced processes the same way, without
   calibrating. It prints every metric as a median with quartiles and a
   sample count; the last line of standard output is one
   JSON object with the run's verdict and metrics. Round r of a
   multi-round invocation uses seed S + r. *)

open Perfbench
module Campaign = Ffault_campaign
module Json = Campaign.Json
module Checkpoint = Campaign.Checkpoint
module Clock = Ffault_telemetry.Clock

let exe = Sys.executable_name

let usage () =
  prerr_endline
    "usage: run.exe [--workload W]... [--seed S] [--seconds T] [--trace 0|1] [--smoke] \
     [--out FILE]\n\
     workloads: grid-1dom grid-2dom faulty-2dom dist-2w netsim-sweep";
  exit 2

let fail_usage msg =
  prerr_endline ("run.exe: " ^ msg);
  usage ()

(* ---- repetitions, in fresh processes ---- *)

let dirs = ref 0

let fresh_dir () =
  incr dirs;
  let d = Filename.concat Workload.work_dir (Fmt.str "%d-%d" (Unix.getpid ()) !dirs) in
  Checkpoint.mkdir_p d;
  d

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let ok_or_fail what = function Ok v -> v | Error m -> failwith (what ^ ": " ^ m)

(* Spawn [prog] (this executable by default) on [args]; returns the
   spawn and exit times and the child's last output line. *)
let spawn ?(prog = exe) args =
  let r, w = Unix.pipe ~cloexec:true () in
  let t0 = Clock.now_ns () in
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) Unix.stdin w Unix.stderr in
  Unix.close w;
  let out = Fun.protect ~finally:(fun () -> Unix.close r) (fun () -> Rep.read_all r) in
  let _, status = Unix.waitpid [] pid in
  let t1 = Clock.now_ns () in
  match status with
  | Unix.WEXITED 0 -> (t0, t1, ok_or_fail "process output" (Rep.last_line out))
  | _ -> failwith ("process failed: " ^ String.concat " " (prog :: args))

(* ---- host speed ---- *)

(* The calibration kernel's median time on the development host while it
   was quiet (2 CPUs, 2026-10-16). A process whose neighbouring kernel
   runs take this long on average reports its timings unscaled. *)
let reference_calibration_s = 0.1

(* One run of the calibration kernel, in its own process: its time in
   seconds. *)
let calibration () =
  let _, _, facts = spawn ~prog:(Filename.concat (Filename.dirname exe) "calibrate.exe") [] in
  match Option.bind (Json.member "seconds" facts) Json.get_float with
  | Some s when s > 0.0 -> s
  | _ -> failwith "calibrate.exe printed no time"

let rep_args w ~seed ~size ~dir extra =
  [ "--rep"; Workload.name w; "--seed"; Int64.to_string seed; "--dir"; dir ]
  @ (match size with Workload.Smoke -> [ "--smoke" ] | Workload.Full -> [])
  @ extra

let int_of j name = Rep.int_field name j

(* ---- correctness ---- *)

type verdict = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;
  mutable journals : int;
  mutable witnesses : int;
}

let new_verdict () = { attempted = 0; failed = 0; problems = []; journals = 0; witnesses = 0 }
let problem v msg = v.problems <- msg :: v.problems

(* Replayed witnesses of the run so far, per spec (by its manifest). *)
type memo = (string, Checks.replayed) Hashtbl.t

(* [f] over [xs], the first element on a second domain (a workload's
   first campaign is its largest). Checking runs between repetitions, when
   both CPUs are free, and would otherwise take longer than the
   repetition it checks. *)
let map_2dom f = function
  | x :: (_ :: _ as rest) ->
      let first = Domain.spawn (fun () -> f x) in
      let rest = List.map f rest in
      Domain.join first :: rest
  | xs -> List.map f xs

(* Checks journals of distinct specs and returns their digests. *)
let check_journals (memo : memo) v jobs =
  let replayed spec =
    let key = Json.to_string (Campaign.Spec.to_json spec) in
    match Hashtbl.find_opt memo key with
    | Some r -> r
    | None ->
        let r = Hashtbl.create 1024 in
        Hashtbl.replace memo key r;
        r
  in
  let jobs = List.map (fun (spec, path) -> (spec, path, replayed spec)) jobs in
  let checked =
    map_2dom (fun (spec, path, replayed) -> (spec, Checks.journal ~replayed spec ~path)) jobs
  in
  List.map
    (fun (spec, c) ->
      v.attempted <- v.attempted + c.Checks.total;
      v.failed <- v.failed + c.Checks.failed;
      v.journals <- v.journals + 1;
      v.witnesses <- v.witnesses + c.Checks.witnesses;
      if c.Checks.bad_witnesses > 0 then
        problem v
          (Fmt.str "%s: %d witness(es) did not replay to a violation" spec.Campaign.Spec.name
             c.Checks.bad_witnesses);
      c.Checks.digest)
    checked

let campaign_journal ~root spec =
  Checkpoint.journal_path ~dir:(Checkpoint.campaign_dir ~root spec)

(* grid-1dom's digest per (seed, size): grid-2dom and dist-2w must
   reproduce it. Computed in this process when grid-1dom did not run
   here first. *)
let references = Hashtbl.create 4

let reference ~seed ~size =
  match Hashtbl.find_opt references (seed, size) with
  | Some d -> d
  | None ->
      let d = Checks.combine [ Checks.reference_digest (Workload.grid_spec ~size ~seed) ] in
      Hashtbl.replace references (seed, size) d;
      d

(* ---- one untraced run ---- *)

type run = {
  w : Workload.t;
  seed : int64;
  traced : bool;
  started_ns : int;
  values : (Catalog.metric * float list) list;  (** samples of each metric *)
  calibrations : float list;  (** calibration kernel times, s; none in a traced run *)
  v : verdict;
  notes : string list;  (** extra human-readable lines *)
}

let setup_probes = function Workload.Full -> 10 | Workload.Smoke -> 1

(* One timed repetition, its timings at the reference host speed. *)
type rep = {
  digest : string;
  wall_s : float;  (** as measured *)
  trials_per_s : float;
  setup_s : float;
  rss_mb : float;
}

let untraced w ~seed ~size ~seconds =
  let v = new_verdict () in
  let started_ns = Clock.now_ns () in
  (* Kernel runs alternate with the timed processes. A process's computing
     time shrinks by its slowdown: how much slower than the reference the
     kernel ran, in the mean of the two runs on either side of it. *)
  let calibrations = ref [ calibration () ] in
  let spawn_timed args =
    let before = List.hd !calibrations in
    let times = spawn args in
    let after = calibration () in
    calibrations := after :: !calibrations;
    ((before +. after) /. 2.0 /. reference_calibration_s, times)
  in
  let setup_of ~slowdown t0 facts =
    let first = int_of facts "first_ns" in
    if first = 0 then begin
      problem v "a repetition journaled no record";
      nan
    end
    else float_of_int (first - t0) /. 1e9 /. slowdown
  in
  let setups =
    List.init (setup_probes size) (fun _ ->
        let dir = fresh_dir () in
        let slowdown, (t0, _, facts) =
          spawn_timed (rep_args w ~seed ~size ~dir [ "--setup-only" ])
        in
        rm_rf dir;
        setup_of ~slowdown t0 facts)
  in
  let plan = Workload.plan w ~size ~seed in
  let memo = Hashtbl.create 4 in
  let one_rep () =
    let dir = fresh_dir () in
    let slowdown, (t0, t1, facts) = spawn_timed (rep_args w ~seed ~size ~dir []) in
    let wall_s = float_of_int (t1 - t0) /. 1e9 in
    (* On dist-2w, from serve's return until the last worker exits, a
       worker sleeps out the coordinator's end-of-campaign Wait: host
       speed does not change that part. *)
    let asleep_s =
      match plan with
      | Workload.Dist _ -> float_of_int (t1 - int_of facts "serve_ns") /. 1e9
      | Workload.Local _ | Workload.Netsim _ -> 0.0
    in
    let digest_of specs =
      Checks.combine
        (check_journals memo v
           (List.map (fun spec -> (spec, campaign_journal ~root:dir spec)) specs))
    in
    let digest =
      match plan with
      | Workload.Local runs -> digest_of (List.map fst runs)
      | Workload.Dist spec -> digest_of [ spec ]
      | Workload.Netsim { schedules; _ } ->
          let explored = int_of facts "schedules" and bad = int_of facts "violations" in
          v.attempted <- v.attempted + schedules;
          v.failed <- v.failed + bad + (schedules - explored);
          Fmt.str "%d events" (int_of facts "events")
    in
    rm_rf dir;
    {
      digest;
      wall_s;
      trials_per_s =
        float_of_int (int_of facts "trials") /. (((wall_s -. asleep_s) /. slowdown) +. asleep_s);
      setup_s = setup_of ~slowdown t0 facts;
      rss_mb = float_of_int (int_of facts "rss_kb" + int_of facts "workers_rss_kb") /. 1024.0;
    }
  in
  let rec loop acc measured =
    if acc <> [] && measured >= seconds then List.rev acc
    else
      let r = one_rep () in
      loop (r :: acc) (measured +. r.wall_s)
  in
  (* The first repetition after the set-up probes runs slow (cold
     caches), so a full-size run checks it but does not time it. *)
  let warmup = match size with Workload.Full -> [ one_rep () ] | Workload.Smoke -> [] in
  let reps = loop [] 0.0 in
  let digests = List.sort_uniq String.compare (List.map (fun r -> r.digest) (warmup @ reps)) in
  let digest = List.hd digests in
  if List.length digests > 1 then problem v "repetitions of one seed gave different outputs";
  let notes = ref [ Fmt.str "outputs: %s" digest ] in
  (match w with
  | Workload.Grid_1dom -> Hashtbl.replace references (seed, size) digest
  | _ when Workload.same_records_as_grid_1dom w ->
      if digest = reference ~seed ~size then notes := [ Fmt.str "outputs: %s (= grid-1dom)" digest ]
      else problem v "records differ from grid-1dom's for the same seed"
  | _ -> ());
  let calibrations = List.rev !calibrations in
  let metric name = Option.get (Catalog.find name) in
  {
    w;
    seed;
    traced = false;
    started_ns;
    values =
      [
        (metric "trials_per_s", List.map (fun r -> r.trials_per_s) reps);
        (metric "setup_s", setups @ List.map (fun r -> r.setup_s) reps);
        (metric "peak_rss_mb", List.map (fun r -> r.rss_mb) reps);
      ];
    calibrations;
    v;
    notes =
      Fmt.str "%d repetition(s) of %s s, %d set-up probe(s)" (List.length reps)
        (String.concat " " (List.map (fun r -> Fmt.str "%.3f" r.wall_s) reps))
        (List.length setups)
      :: Fmt.str "host speed: calibration kernel median %.4f s (n=%d) against %.4f s"
           (Stats.median calibrations) (List.length calibrations) reference_calibration_s
      :: !notes;
  }

(* ---- one traced run ---- *)

(* Traced processes, each checked like a repetition, until they have
   taken [seconds] (at least one); each metric is their median. *)
let traced w ~seed ~size ~seconds =
  let v = new_verdict () in
  let started_ns = Clock.now_ns () in
  let runs = List.map fst (Layers.local_runs w ~size ~seed) in
  let dist_spec = Layers.dist_spec w ~size ~seed in
  let memo = Hashtbl.create 4 in
  let one () =
    let dir = fresh_dir () in
    let t0, t1, facts = spawn (rep_args w ~seed ~size ~dir [ "--traced" ]) in
    let check root_of = check_journals memo v (List.map (fun spec -> (spec, root_of spec)) runs) in
    let traced = check (fun spec -> Layers.traced_journal ~dir spec) in
    let untraced = check (campaign_journal ~root:(Layers.untraced_root ~dir)) in
    if traced <> untraced then problem v "traced and untraced journals differ";
    let dist =
      check_journals memo v
        [ (dist_spec, campaign_journal ~root:(Layers.dist_root ~dir) dist_spec) ]
    in
    if w = Workload.Dist_2w && dist <> traced then
      problem v "the distributed journal differs from the traced local one";
    let schedules = int_of facts "schedules" and bad = int_of facts "schedule_violations" in
    v.attempted <- v.attempted + schedules;
    v.failed <- v.failed + bad;
    if Json.member "events_match" facts <> Some (Json.Bool true) then
      problem v "traced and untraced netsim sweeps explored different events";
    rm_rf dir;
    (float_of_int (t1 - t0) /. 1e9, facts)
  in
  let rec loop acc measured =
    if acc <> [] && measured >= seconds then List.rev acc
    else
      let wall, facts = one () in
      loop (facts :: acc) (measured +. wall)
  in
  let all = loop [] 0.0 in
  let floats obj facts =
    match Json.member obj facts with
    | Some (Json.Obj kv) ->
        List.filter_map (fun (k, x) -> Option.map (fun f -> (k, f)) (Json.get_float x)) kv
    | _ -> []
  in
  let samples obj key = List.filter_map (fun f -> List.assoc_opt key (floats obj f)) all in
  let values =
    List.map
      (fun (m : Catalog.metric) ->
        match samples "metrics" m.Catalog.name with
        | [] ->
            problem v ("missing metric " ^ m.Catalog.name);
            (m, [ nan ])
        | xs -> (m, xs))
      Catalog.per_layer
  in
  let self =
    List.map
      (fun (k, _) -> (k, Stats.median (samples "self_ms" k)))
      (floats "self_ms" (List.hd all))
  in
  let total = List.fold_left (fun s (_, ms) -> s +. ms) 0.0 self in
  let notes =
    List.map
      (fun (k, ms) -> Fmt.str "self time %-42s %10.1f ms %5.1f %%" k ms (100.0 *. ms /. total))
      self
  in
  let notes = notes @ [ "trace: " ^ Layers.trace_file w ] in
  { w; seed; traced = true; started_ns; values; calibrations = []; v; notes }

(* ---- output ---- *)

let num x = if Float.is_finite x then Json.Float x else Json.Null

let print_run r =
  Fmt.pr "%s seed %Ld%s@." (Workload.name r.w) r.seed (if r.traced then " (traced)" else "");
  List.iter
    (fun ((m : Catalog.metric), xs) ->
      let s = Stats.summarize xs in
      Fmt.pr "  %-34s %14.6g %-8s (q1 %.6g, q3 %.6g, n=%d)@." m.Catalog.name s.Stats.median
        m.Catalog.unit s.Stats.q1 s.Stats.q3 s.Stats.n)
    r.values;
  List.iter (fun n -> Fmt.pr "  %s@." n) r.notes;
  Fmt.pr "  checks: %d journal(s), %d attempted, %d failed, %d witness(es) replayed@."
    r.v.journals r.v.attempted r.v.failed r.v.witnesses;
  List.iter
    (fun p -> Fmt.epr "perfbench: %s seed %Ld: FAILED: %s@." (Workload.name r.w) r.seed p)
    (List.rev r.v.problems);
  if r.v.failed > 0 then
    Fmt.epr "perfbench: %s seed %Ld: FAILED: %d of %d trials failed@." (Workload.name r.w)
      r.seed r.v.failed r.v.attempted

let correct r = r.v.failed = 0 && r.v.problems = []

let record_json ~size r =
  Json.Obj
    [
      ("workload", Json.Str (Workload.name r.w));
      ("seed", Json.Str (Int64.to_string r.seed));
      ("trace", Json.Bool r.traced);
      ("started_ns", Json.Int r.started_ns);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Int r.v.attempted);
      ("failed", Json.Int r.v.failed);
      ( "metrics",
        Json.Obj
          (List.map
             (fun ((m : Catalog.metric), xs) ->
               let s = Stats.summarize xs in
               ( m.Catalog.name,
                 Json.Obj
                   [
                     ("value", num s.Stats.median);
                     ("unit", Json.Str m.Catalog.unit);
                     ("q1", num s.Stats.q1);
                     ("q3", num s.Stats.q3);
                     ("n", Json.Int s.Stats.n);
                     ("samples", Json.List (List.map num xs));
                   ] ))
             r.values) );
      ("calibration_s", Json.List (List.map num r.calibrations));
      ( "host",
        Host.json ~mode:(match size with Workload.Full -> "full" | Workload.Smoke -> "smoke") );
    ]

(* Each workload and metric of several runs, with the median of each
   run's samples. *)
let over_runs runs =
  List.concat_map
    (fun w ->
      List.filter_map
        (fun (m : Catalog.metric) ->
          let per_run =
            List.filter_map
              (fun r ->
                if r.w <> w then None
                else
                  List.find_map
                    (fun ((m' : Catalog.metric), xs) ->
                      if m'.Catalog.name = m.Catalog.name then Some (Stats.median xs) else None)
                    r.values)
              runs
          in
          if per_run = [] then None else Some (w, m, per_run))
        (Catalog.end_to_end @ Catalog.per_layer))
    Workload.all

(* The last line: one run's own metric names, or for several runs each
   metric's median over the runs as "<workload>/<metric>". *)
let result_line runs =
  let metric name unit x = (name, Json.Obj [ ("value", num x); ("unit", Json.Str unit) ]) in
  let metrics =
    match runs with
    | [ r ] ->
        List.map
          (fun ((m : Catalog.metric), xs) -> metric m.Catalog.name m.Catalog.unit (Stats.median xs))
          r.values
    | _ ->
        List.map
          (fun (w, (m : Catalog.metric), xs) ->
            metric (Workload.name w ^ "/" ^ m.Catalog.name) m.Catalog.unit (Stats.median xs))
          (over_runs runs)
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool (List.for_all correct runs));
         ("attempted", Json.Int (List.fold_left (fun s r -> s + r.v.attempted) 0 runs));
         ("failed", Json.Int (List.fold_left (fun s r -> s + r.v.failed) 0 runs));
         ("metrics", Json.Obj metrics);
       ])

(* ---- command line ---- *)

type opts = {
  mutable workloads : Workload.t list;
  mutable seed : int64;
  mutable seconds : float;
  mutable trace : bool;
  mutable smoke : bool;
  mutable out : string option;
  (* internal: a repetition or a worker *)
  mutable rep : Workload.t option;
  mutable dir : string;
  mutable setup_only : bool;
  mutable rep_traced : bool;
}

let parse argv =
  let o =
    {
      workloads = []; seed = 1L; seconds = 0.0; trace = false; smoke = false;
      out = None; rep = None; dir = "."; setup_only = false; rep_traced = false;
    }
  in
  let workload s =
    match Workload.of_name s with Some w -> w | None -> fail_usage ("unknown workload " ^ s)
  in
  let number what f s = match f s with Some x -> x | None -> fail_usage ("bad " ^ what ^ " " ^ s) in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        o.workloads <- o.workloads @ [ workload w ];
        go rest
    | "--seed" :: s :: rest ->
        o.seed <- number "seed" Int64.of_string_opt s;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- number "seconds" float_of_string_opt s;
        go rest
    | "--trace" :: s :: rest ->
        o.trace <-
          (match s with "0" -> false | "1" -> true | _ -> fail_usage "--trace takes 0 or 1");
        go rest
    | "--smoke" :: rest ->
        o.smoke <- true;
        go rest
    | "--out" :: f :: rest ->
        o.out <- Some f;
        go rest
    | "--rep" :: w :: rest ->
        o.rep <- Some (workload w);
        go rest
    | "--dir" :: d :: rest ->
        o.dir <- d;
        go rest
    | "--setup-only" :: rest ->
        o.setup_only <- true;
        go rest
    | "--traced" :: rest ->
        o.rep_traced <- true;
        go rest
    | arg :: _ -> fail_usage ("unexpected argument " ^ arg)
  in
  go argv;
  o

let harness o =
  let size = if o.smoke then Workload.Smoke else Workload.Full in
  let workloads = if o.workloads = [] then Workload.all else o.workloads in
  let rounds = if o.workloads <> [] || o.smoke || o.trace then 1 else 5 in
  Checkpoint.mkdir_p Workload.work_dir;
  Fmt.pr "perfbench: %s, %s@." (Host.describe ())
    (match size with Workload.Full -> "full size" | Workload.Smoke -> "smoke size");
  let runs = ref [] in
  let emit r =
    print_run r;
    Option.iter
      (fun path ->
        Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
            output_string oc (Json.to_string (record_json ~size r));
            output_char oc '\n'))
      o.out;
    runs := r :: !runs
  in
  for round = 0 to rounds - 1 do
    let seed = Int64.add o.seed (Int64.of_int round) in
    List.iter
      (fun w ->
        if o.smoke || not o.trace then emit (untraced w ~seed ~size ~seconds:o.seconds);
        if o.smoke || o.trace then emit (traced w ~seed ~size ~seconds:o.seconds))
      workloads
  done;
  let runs = List.rev !runs in
  if List.length runs > 1 then begin
    Fmt.pr "summary over runs (median of each run's median):@.";
    List.iter
      (fun (w, (m : Catalog.metric), xs) ->
        let s = Stats.summarize xs in
        Fmt.pr "  %-13s %-34s %14.6g %-8s (q1 %.6g, q3 %.6g, n=%d)@." (Workload.name w)
          m.Catalog.name s.Stats.median m.Catalog.unit s.Stats.q1 s.Stats.q3 s.Stats.n)
      (over_runs runs)
  end;
  print_endline (result_line runs);
  exit (if List.for_all correct runs then 0 else 1)

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--as-worker"; sock; name ] -> Rep.worker ~sock ~name
  | argv -> (
      let o = parse argv in
      let size = if o.smoke then Workload.Smoke else Workload.Full in
      match o.rep with
      | Some w when o.rep_traced ->
          Layers.main ~exe ~dir:o.dir ~size ~seed:o.seed w;
          exit 0
      | Some w ->
          Rep.main ~exe ~dir:o.dir ~setup_only:o.setup_only ~seed:o.seed
            (Workload.plan w ~size ~seed:o.seed);
          exit 0
      | None -> harness o)
