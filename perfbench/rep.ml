(* One repetition of a workload, in a fresh process the harness spawns,
   so that its start-up and its peak RSS are its own. It drives the
   workload through the public entry points and prints one JSON line of
   facts. The harness times the process from outside and checks the
   journals it leaves behind. *)

module Campaign = Ffault_campaign
module Json = Campaign.Json
module Pool = Campaign.Pool
module Dist = Ffault_dist
module Netsim = Ffault_netsim
module Clock = Ffault_telemetry.Clock

(* Raised from a record hook to end a set-up-only repetition. *)
exception Stop

let first_ns = Atomic.make 0
let first_record () = ignore (Atomic.compare_and_set first_ns 0 (Clock.now_ns ()))

let observe ~setup_only _ =
  first_record ();
  if setup_only then raise Stop

let local ~dir ~setup_only runs =
  List.fold_left
    (fun trials (spec, domains) ->
      match Pool.run_dir ~domains ~observe:(observe ~setup_only) ~root:dir spec with
      | Ok s -> trials + s.Pool.executed
      | Error m -> failwith m)
    0 runs

let read_all fd = In_channel.input_all (Unix.in_channel_of_descr fd)

let last_line out =
  String.split_on_char '\n' out
  |> List.filter (fun l -> String.trim l <> "")
  |> List.rev
  |> function
  | l :: _ -> Json.of_string l
  | [] -> Error "no output"

let int_field name j = Option.value ~default:0 (Option.bind (Json.member name j) Json.get_int)

let wait_for_file path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (Sys.file_exists path) do
    if Unix.gettimeofday () > deadline then failwith ("no coordinator socket at " ^ path);
    Thread.delay 0.0005
  done

type dist = {
  d_trials : int;
  d_serve_ns : int;  (** when serve returned *)
  d_last_exit_ns : int;  (** when the last worker process had exited *)
  d_leases : int;
  d_workers_rss_kb : int;
}

(* The CLI defaults: 1000-trial leases, 30 s lease timeout. *)
let coordinator_config sock = Dist.Coordinator.config (Dist.Transport.Unix_sock sock)

(* An in-process coordinator and two worker processes, each running
   [Dist.Worker.run] on one domain over a Unix socket. *)
let dist ~exe ~dir ~setup_only spec =
  (* relative, so it fits the sun_path limit wherever the checkout
     lives; the workers inherit the working directory *)
  let sock = Filename.concat dir "c.sock" in
  let cfg = coordinator_config sock in
  let served = ref (Error "serve never returned") in
  let serve_ns = Atomic.make 0 in
  let coordinator =
    Thread.create
      (fun () ->
        served :=
          (try Dist.Coordinator.serve ~observe:(fun _ -> first_record ()) ~root:dir cfg spec
           with e -> Error (Printexc.to_string e));
        Atomic.set serve_ns (Clock.now_ns ()))
      ()
  in
  wait_for_file sock;
  let workers =
    List.init 2 (fun i ->
        let r, w = Unix.pipe ~cloexec:true () in
        let pid =
          Unix.create_process exe
            [| exe; "--as-worker"; sock; Fmt.str "w%d" i |]
            Unix.stdin w Unix.stderr
        in
        Unix.close w;
        (pid, r))
  in
  let reap (pid, r) =
    let out = read_all r in
    Unix.close r;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> last_line out
    | _ -> Error "worker failed"
  in
  if setup_only then begin
    while Atomic.get first_ns = 0 do
      Thread.delay 0.0005
    done;
    List.iter (fun (pid, _) -> Unix.kill pid Sys.sigkill) workers;
    List.iter (fun w -> ignore (reap w)) workers;
    raise Stop
  end;
  Thread.join coordinator;
  let outs = List.map reap workers in
  let last_exit_ns = Clock.now_ns () in
  match !served with
  | Error m -> failwith ("serve: " ^ m)
  | Ok s ->
      let rss =
        List.fold_left
          (fun acc -> function
            | Ok j -> acc + int_field "rss_kb" j
            | Error m -> failwith m)
          0 outs
      in
      {
        d_trials = s.Dist.Coordinator.pool.Pool.executed;
        d_serve_ns = Atomic.get serve_ns;
        d_last_exit_ns = last_exit_ns;
        d_leases = s.Dist.Coordinator.leases_granted;
        d_workers_rss_kb = rss;
      }

(* A bench worker does not reconnect: if its coordinator is gone the
   repetition has failed, and the worker must not outlive it. *)
let worker ~sock ~name =
  let cfg = Dist.Worker.config ~name ~domains:1 (Dist.Transport.Unix_sock sock) in
  match Dist.Worker.run ~retry:(Ffault_supervise.Retry.policy ~max_retries:0 ()) cfg with
  | Ok s ->
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("rss_kb", Json.Int (Host.vmhwm_kb ()));
                ("trials", Json.Int s.Dist.Worker.trials_run);
              ]));
      exit 0
  | Error m ->
      prerr_endline ("perfbench worker: " ^ m);
      exit 1

let netsim ~setup_only ~seed ~config ~schedules =
  Netsim.Search.explore
    ~on_progress:(fun _ -> observe ~setup_only ())
    ~config ~root:seed ~schedules ()

(* Runs the repetition and prints its facts. A set-up-only repetition
   stops at the first record (or schedule) and reports only when that
   was. *)
let main ~exe ~dir ~setup_only ~seed plan =
  let facts =
    match
      match plan with
      | Workload.Local runs -> [ ("trials", Json.Int (local ~dir ~setup_only runs)) ]
      | Workload.Dist spec ->
          let d = dist ~exe ~dir ~setup_only spec in
          [
            ("trials", Json.Int d.d_trials);
            ("serve_ns", Json.Int d.d_serve_ns);
            ("last_exit_ns", Json.Int d.d_last_exit_ns);
            ("leases", Json.Int d.d_leases);
            ("workers_rss_kb", Json.Int d.d_workers_rss_kb);
          ]
      | Workload.Netsim { config; schedules } ->
          let s = netsim ~setup_only ~seed ~config ~schedules in
          [
            ("trials", Json.Int (s.Netsim.Search.explored * config.Netsim.Sim.trials));
            ("schedules", Json.Int s.Netsim.Search.explored);
            ("events", Json.Int s.Netsim.Search.total_events);
            ("violations", Json.Int (List.length s.Netsim.Search.violations));
          ]
    with
    | facts -> facts
    | exception Stop -> []
  in
  print_endline
    (Json.to_string
       (Json.Obj
          (("first_ns", Json.Int (Atomic.get first_ns))
          :: ("rss_kb", Json.Int (Host.vmhwm_kb ()))
          :: facts)))
