module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Grid = Campaign.Grid
module Json = Campaign.Json
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Codec = Ffault_dist.Codec
module Core = Ffault_dist.Core
module Status = Ffault_dist.Status
module Coordinator = Ffault_dist.Coordinator
module Protocol = Ffault_dist.Worker.Protocol
module Retry = Ffault_supervise.Retry
module Events = Ffault_telemetry.Events

type config = {
  workers : int;
  trials : int;
  lease_trials : int;
  verify_complete : bool;
  fence_epochs : bool;
  horizon_ns : int;
}

let config ?(workers = 3) ?(trials = 200) ?(lease_trials = 32)
    ?(verify_complete = true) ?(fence_epochs = true) ?(horizon_ns = 60_000_000_000) () =
  if workers < 1 then invalid_arg "Sim.config: workers must be >= 1";
  if trials < 1 then invalid_arg "Sim.config: trials must be >= 1";
  if lease_trials < 1 then invalid_arg "Sim.config: lease_trials must be >= 1";
  if horizon_ns < 1_000_000_000 then invalid_arg "Sim.config: horizon under 1s";
  { workers; trials; lease_trials; verify_complete; fence_epochs; horizon_ns }

type violation =
  | Duplicate of int
  | Hole of int
  | Stalled of string
  | Reexec of { worker : string; trial : int }

let violation_to_string = function
  | Duplicate id -> Printf.sprintf "trial %d journaled more than once" id
  | Hole id -> Printf.sprintf "trial %d never journaled" id
  | Stalled why -> "stalled: " ^ why
  | Reexec { worker; trial } ->
      Printf.sprintf "trial %d re-executed by %s without a reconcile between" trial
        worker

type result = {
  violation : violation option;
  fired : Fault_plan.atom list;
  records : Journal.record list;
  trace : string list;
  events : int;
  end_ns : int;
  status_probes : (int * string * string) list;
}

let probe_ns = 1_000_000_000 (* mid-run status scrape, virtual *)

(* ---- virtual-time tuning (all deterministic constants) ---- *)

let tick_ns = 50_000_000 (* coordinator tick cadence *)
let hb_interval_s = 0.5 (* imposed on workers via Welcome *)
let lease_timeout_s = 2.0 (* silence budget before a lease is reclaimed *)
let silence_ns = 1_000_000_000 (* worker's reply deadline before reconnecting *)
let reconnect_ns = 25_000_000
let trial_cost_ns = 2_000_000 (* virtual compute per trial *)
let hb_ns = 500_000_000

(* Refused connects (coordinator down between crash and restart) back
   off under the same bounded Retry schedule the socket worker uses —
   enough budget to outlast any crash window the plan can derive. *)
let connect_retry =
  Retry.policy ~max_retries:20 ~base_backoff_ns:50_000_000
    ~max_backoff_ns:1_000_000_000 ()

(* The sim exercises the distribution layer, not the trial engine:
   every trial "runs" to the same synthetic pass record, a pure
   function of the grid — which is what makes the journal of a run a
   deterministic artifact worth diffing. *)
let record_of spec cells id =
  let tr = Grid.trial_of_cells spec cells id in
  {
    Journal.trial = id;
    cell = tr.Grid.cell;
    seed = tr.Grid.seed;
    ok = true;
    outcome = Journal.Pass;
    retries = 0;
    violations = [];
    steps = 1;
    max_steps = 1;
    stage = -1;
    faults = 0;
    crash_faults = 0;
    wall_us = 1;
    witness = None;
  }

type wphase = Joining | Awaiting | Running | Stopped

(* The lease a worker is (or was last) working: enough to finish the
   range without a connection and to replay it — records plus the
   epoch-stamped [Complete] — to the next session, as the socket worker
   does. *)
type wlease = {
  wl_id : int;
  wl_epoch : int; (* the grant's fencing token, echoed on Complete *)
  wl_ids : int list;
  mutable wl_prod_rev : int list; (* executed so far, newest first *)
}

type wactor = {
  idx : int;
  wname : string;
  mutable inc : int; (* incarnation: bumped on reconnect/crash/restart *)
  mutable alive : bool;
  mutable wconn : Net.conn option;
  mutable phase : wphase;
  mutable seq : int; (* invalidates pending reply-deadline timers *)
  mutable sent : int; (* result frames streamed — the synthetic telemetry counter *)
  mutable wepoch : int; (* last coordinator epoch seen; 0 before any Welcome *)
  mutable wcur : wlease option;
  mutable conn_fails : int; (* consecutive refused connects *)
}

let run ?atoms ?(trace = true) cfg ~seed =
  let sched = Sched.create () in
  let trace_rev = ref [] in
  let push s = trace_rev := s :: !trace_rev in
  let tracef fmt =
    if trace then
      Printf.ksprintf
        (fun s ->
          push
            (Printf.sprintf "%10.3fms %s"
               (float_of_int (Sched.now_ns sched) /. 1e6)
               s))
        fmt
    else Printf.ifprintf () fmt
  in
  let plan =
    let full = Fault_plan.generate ~seed ~workers:cfg.workers in
    match atoms with None -> full | Some atoms -> Fault_plan.replay full ~atoms
  in
  let net =
    Net.create ~sched ~plan ?trace:(if trace then Some push else None) ~workers:cfg.workers ()
  in
  let spec = Spec.v ~name:"netsim" ~protocol:"fig1" ~trials:cfg.trials () in
  let cells = Grid.cells spec in
  let total = Grid.total_trials spec in
  let records_rev = ref [] in
  (* the coordinator's structured event log, on virtual time and graded
     by the real coordinator's classifier — /events is golden-testable.
     One log across incarnations, like the appended events.jsonl. *)
  let evlog = Events.create ~now:(fun () -> Sched.now_ns sched) () in
  let io = { Core.peer = Net.peer; send = Net.send; close = Net.close } in
  (* ---- the worker-side exactly-once log ----
     Every execution is recorded as (worker, trial, grant epoch, lease
     id, worker incarnation). The same worker executing the same trial
     twice is legitimate only when the coordinator reconciled in
     between — and because a shard lives in at most one lease at a
     time, that ordering is visible at the grants: the earlier lease
     must have been requeued (expiry, disconnect, reconcile-at-request,
     holey Complete) before the range could travel again, or the
     earlier grant belongs to a dead incarnation whose whole lease
     table was re-derived from the journal (epoch differs). A repeat
     under the {e same} lease id is the network duplicating a grant
     frame — the worker honestly re-ran what it was handed; dedup
     absorbs it. [Core.create]'s [on_requeue] records the requeues. *)
  let exec_rev = ref [] in
  let requeued : (int * int, unit) Hashtbl.t = Hashtbl.create 64 in
  (* ---- the restartable coordinator ----
     The engine and its lease table live in [core]; a CoordCrash drops
     them (private state dies with the process) and the restart boots a
     fresh incarnation whose only input is the journal — exactly the
     recovery the real [serve --resume] runs. *)
  let epoch = ref 0 in
  let core : Net.conn Core.t option ref = ref None in
  let finished = ref false in
  let install_listener () =
    Net.set_listener net
      (Some
         (fun conn ->
           match !core with
           | None -> ()
           | Some co ->
               let c = Core.add_client co conn in
               (* a connection accepted by one incarnation must never
                  poke a later one: guard every callback on the engine
                  it was registered with still being current *)
               let live () = match !core with Some co' -> co' == co | None -> false in
               Net.set_handler conn
                 {
                   Net.h_frames =
                     (fun frames ->
                       if live () then List.iter (Core.deliver co c) frames);
                   h_closed =
                     (fun () ->
                       if live () && not (Core.dropped c) then
                         Core.client_closed co c ~why:"eof");
                   h_error =
                     (fun e ->
                       if live () && not (Core.dropped c) then
                         Core.client_closed co c ~why:e);
                 }))
  in
  let boot () =
    incr epoch;
    let this_epoch = !epoch in
    let st = Checkpoint.fresh ~total in
    List.iter
      (fun (r : Journal.record) ->
        if not (Checkpoint.is_done st r.Journal.trial) then
          Checkpoint.mark st r.Journal.trial)
      !records_rev;
    let co =
      Core.create ~clock:(Sched.clock sched) ~epoch:this_epoch
        ~fence_epochs:cfg.fence_epochs ~verify_complete:cfg.verify_complete
        ~on_event:(fun s ->
          Events.emit evlog ~severity:(Coordinator.classify s) ~scope:"dist" s;
          tracef "coord: %s" s)
        ~on_requeue:(fun _name lease -> Hashtbl.replace requeued (this_epoch, lease) ())
        ~io
        ~append:(fun r -> records_rev := r :: !records_rev)
        ~st ~spec ~lease_trials:cfg.lease_trials ~lease_timeout_s ~hb_interval_s
        ~max_workers:(cfg.workers * 4) ~supervision:Codec.no_supervision ()
    in
    core := Some co;
    install_listener ()
  in
  boot ();
  (* status probes: the very responses the live HTTP endpoint would
     serve, taken under virtual time. Process metrics are shared global
     state across a test binary, so /metrics is not probed here. *)
  let status_probes_rev = ref [] in
  let probe () =
    match !core with
    | None -> () (* coordinator down: nothing is serving /status *)
    | Some co ->
        let source =
          {
            Status.view = (fun () -> Core.view co);
            events = (fun ~limit -> Events.tail ~limit evlog);
            metrics = (fun () -> "");
          }
        in
        List.iter
          (fun path ->
            let r = Status.respond source path in
            status_probes_rev :=
              (Sched.now_ns sched, path, r.Status.body) :: !status_probes_rev)
          [ "/status"; "/workers"; "/events" ]
  in
  (* coordinator completion is observed on the tick timer; once done,
     finish + close the listener so restarting workers stop cleanly and
     the event queue can drain *)
  let rec tick () =
    if not !finished then begin
      (match !core with
      | None -> () (* down: the restart event re-enters via [boot] *)
      | Some co ->
          if Core.is_done co then begin
            finished := true;
            tracef "coord: campaign complete";
            Core.finish co;
            Net.set_listener net None;
            probe ()
          end
          else Core.tick co);
      if not !finished then Sched.after sched ~ns:tick_ns tick
    end
  in
  Sched.after sched ~ns:tick_ns tick;
  Sched.at sched ~ns:probe_ns (fun () -> if not !finished then probe ());

  (* ---- worker actors ---- *)
  let ws =
    Array.init cfg.workers (fun i ->
        {
          idx = i;
          wname = Printf.sprintf "w%d" i;
          inc = 0;
          alive = true;
          wconn = None;
          phase = Joining;
          seq = 0;
          sent = 0;
          wepoch = 0;
          wcur = None;
          conn_fails = 0;
        })
  in
  let bump w = w.seq <- w.seq + 1 in
  let send_msg w msg =
    match w.wconn with None -> () | Some c -> ignore (Net.send c msg)
  in
  let log_exec w ~epoch ~lease id =
    exec_rev := (w.idx, id, epoch, lease, w.inc) :: !exec_rev
  in
  let rec start w =
    match Net.connect net ~worker:w.idx with
    | Error why ->
        (* coordinator down (or campaign over and the listener closed):
           bounded backoff, like the socket worker — not instant death *)
        w.conn_fails <- w.conn_fails + 1;
        if w.conn_fails > connect_retry.Retry.max_retries then
          stop w ~why:(why ^ " — connect retries exhausted")
        else begin
          let ns =
            Retry.backoff_ns connect_retry ~seed:(Int64.of_int w.idx)
              ~attempt:w.conn_fails
          in
          tracef "%s: %s — connect retry %d in %dms" w.wname why w.conn_fails
            (ns / 1_000_000);
          bump w;
          let inc = w.inc in
          Sched.after sched ~ns (fun () -> if w.alive && w.inc = inc then start w)
        end
    | Ok conn ->
        w.conn_fails <- 0;
        w.wconn <- Some conn;
        w.phase <- Joining;
        bump w;
        let inc = w.inc in
        Net.set_handler conn
          {
            Net.h_frames =
              (fun frames ->
                List.iter
                  (fun f -> if w.alive && w.inc = inc then on_frame w f)
                  frames);
            h_closed =
              (fun () ->
                if w.alive && w.inc = inc then begin
                  tracef "%s: eof — reconnect" w.wname;
                  reconnect w
                end);
            h_error =
              (fun e ->
                if w.alive && w.inc = inc then begin
                  tracef "%s: stream error (%s) — reconnect" w.wname e;
                  reconnect w
                end);
          };
        tracef "%s: hello (last epoch %d)" w.wname w.wepoch;
        send_msg w (Protocol.hello ~name:w.wname ~domains:1 ~last_epoch:w.wepoch);
        arm_silence w;
        arm_heartbeat w
  and arm_silence w =
    (* reply deadline: an awaiting worker that hears nothing gives up on
       the connection — this (not any protocol message) is what recovers
       a dropped Welcome or Lease *)
    let inc = w.inc and seq = w.seq in
    Sched.after sched ~ns:silence_ns (fun () ->
        if w.alive && w.inc = inc && w.seq = seq then begin
          tracef "%s: no reply — reconnect" w.wname;
          reconnect w
        end)
  and arm_heartbeat w =
    let inc = w.inc in
    Sched.after sched ~ns:hb_ns (fun () ->
        if w.alive && w.inc = inc then begin
          (* beats piggyback a synthetic telemetry snapshot (results
             streamed so far) — deterministic, unlike real process
             metrics, so the merged fleet counters golden-test *)
          send_msg w
            (Codec.Heartbeat
               {
                 snapshot =
                   Some
                     (Json.Obj
                        [
                          ( "counters",
                            Json.Obj [ ("netsim.results_sent", Json.Int w.sent) ] );
                        ]);
                 spans = None;
               });
          arm_heartbeat w
        end)
  and request w =
    bump w;
    w.phase <- Awaiting;
    send_msg w Codec.Request;
    arm_silence w
  and resend w =
    (* replay the last lease to a fresh session: its records (the
       coordinator dedups them by trial id) and its Complete under the
       original grant epoch (fenced there if an incarnation has passed).
       Nothing is re-executed — this is retransmission, not rework. *)
    match w.wcur with
    | None -> ()
    | Some wl ->
        tracef "%s: resend lease #%d@%d — %d record(s)" w.wname wl.wl_id wl.wl_epoch
          (List.length wl.wl_prod_rev);
        List.iter
          (fun id ->
            w.sent <- w.sent + 1;
            send_msg w (Codec.Result (record_of spec cells id)))
          (List.rev wl.wl_prod_rev);
        send_msg w (Codec.Complete { lease = wl.wl_id; epoch = wl.wl_epoch })
  and run_lease w ~lease ~epoch ~ids =
    bump w;
    w.phase <- Running;
    tracef "%s: lease #%d@%d — %d trial(s)" w.wname lease epoch (List.length ids);
    let wl = { wl_id = lease; wl_epoch = epoch; wl_ids = ids; wl_prod_rev = [] } in
    w.wcur <- Some wl;
    let inc = w.inc in
    List.iteri
      (fun j id ->
        Sched.after sched ~ns:((j + 1) * trial_cost_ns) (fun () ->
            if w.alive && w.inc = inc then begin
              w.sent <- w.sent + 1;
              log_exec w ~epoch ~lease id;
              wl.wl_prod_rev <- id :: wl.wl_prod_rev;
              send_msg w (Codec.Result (record_of spec cells id))
            end))
      ids;
    Sched.after sched
      ~ns:((List.length ids + 1) * trial_cost_ns)
      (fun () ->
        if w.alive && w.inc = inc then begin
          send_msg w (Codec.Complete { lease; epoch });
          request w
        end)
  and finish_lease_offline w =
    (* a connection lost mid-lease cancels the production timers (they
       are incarnation-guarded), but the socket worker's bounded range
       still finishes without its coordinator — mirror that here so the
       resent Complete is honest *)
    match w.wcur with
    | Some wl when w.phase = Running ->
        let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: tl -> drop (n - 1) tl in
        (match drop (List.length wl.wl_prod_rev) wl.wl_ids with
        | [] -> ()
        | remaining ->
            tracef "%s: finishing lease #%d offline — %d trial(s)" w.wname wl.wl_id
              (List.length remaining);
            List.iter
              (fun id ->
                log_exec w ~epoch:wl.wl_epoch ~lease:wl.wl_id id;
                wl.wl_prod_rev <- id :: wl.wl_prod_rev)
              remaining)
    | Some _ | None -> ()
  and stop w ~why =
    if w.phase <> Stopped then begin
      tracef "%s: stop (%s)" w.wname why;
      w.inc <- w.inc + 1;
      bump w;
      w.alive <- false;
      w.phase <- Stopped;
      (match w.wconn with Some c -> Net.close c | None -> ());
      w.wconn <- None
    end
  and reconnect w =
    finish_lease_offline w;
    w.inc <- w.inc + 1;
    bump w;
    (match w.wconn with Some c -> Net.close c | None -> ());
    w.wconn <- None;
    w.phase <- Joining;
    let inc = w.inc in
    Sched.after sched ~ns:reconnect_ns (fun () ->
        if w.alive && w.inc = inc then start w)
  and on_frame w frame =
    match Codec.of_frame frame with
    | Ok msg -> on_msg w msg
    | Error why ->
        tracef "%s: bad frame (%s) — reconnect" w.wname why;
        reconnect w
  and on_msg w msg =
    match w.phase with
    | Stopped -> ()
    | Joining -> (
        match msg with
        | Codec.Bye { reason } -> stop w ~why:("bye: " ^ reason)
        | _ -> (
            match Protocol.welcome_reply msg with
            | Ok welcome ->
                if w.wepoch > 0 && welcome.Protocol.epoch <> w.wepoch then
                  tracef "%s: coordinator is now epoch %d (was %d)" w.wname
                    welcome.Protocol.epoch w.wepoch;
                w.wepoch <- welcome.Protocol.epoch;
                resend w;
                request w
            | Error _ ->
                (* junk or a reordered stray — keep waiting for the
                   real Welcome, with a fresh reply deadline *)
                bump w;
                arm_silence w))
    | Awaiting -> (
        match Protocol.lease_reply spec msg with
        | Protocol.Granted { lease; epoch; lo; hi; done_ids } ->
            run_lease w ~lease ~epoch
              ~ids:
                (List.concat_map
                   (fun (lo, hi) -> List.init (hi - lo) (( + ) lo))
                   (Protocol.ids_to_run ~lo ~hi ~done_ids))
        | Protocol.Backoff s ->
            bump w;
            let inc = w.inc and seq = w.seq in
            Sched.after sched
              ~ns:(int_of_float (s *. 1e9))
              (fun () ->
                if w.alive && w.inc = inc && w.seq = seq then request w)
        | Protocol.Stop reason -> stop w ~why:("bye: " ^ reason)
        | Protocol.Ignore | Protocol.Unexpected _ ->
            bump w;
            arm_silence w)
    | Running -> (
        (* progress is timer-driven; only a Bye matters here (dup'd or
           reordered old replies are ignored) *)
        match msg with
        | Codec.Bye { reason } -> stop w ~why:("bye: " ^ reason)
        | _ -> ())
  in
  Array.iter
    (fun w -> Sched.after sched ~ns:((w.idx + 1) * 1_000_000) (fun () -> start w))
    ws;

  (* ---- the schedule's partition and crash windows ---- *)
  List.iter
    (fun (at_ns, heal_ns, group) ->
      Sched.at sched ~ns:at_ns (fun () ->
          List.iter (fun wi -> Net.set_partitioned net ~worker:wi true) group);
      Sched.at sched ~ns:heal_ns (fun () ->
          List.iter (fun wi -> Net.set_partitioned net ~worker:wi false) group))
    (Fault_plan.partitions plan);
  List.iter
    (fun (wi, at_ns, restart_ns) ->
      let w = ws.(wi) in
      Sched.at sched ~ns:at_ns (fun () ->
          tracef "%s: crash" w.wname;
          w.inc <- w.inc + 1;
          bump w;
          w.alive <- false;
          w.phase <- Stopped;
          w.wconn <- None;
          (* a crashed process remembers nothing *)
          w.wepoch <- 0;
          w.wcur <- None;
          w.conn_fails <- 0;
          Net.crash_worker net ~worker:wi);
      Sched.at sched ~ns:restart_ns (fun () ->
          tracef "%s: restart" w.wname;
          w.inc <- w.inc + 1;
          bump w;
          (match w.wconn with Some c -> Net.close c | None -> ());
          w.wconn <- None;
          w.conn_fails <- 0;
          w.alive <- true;
          start w))
    (Fault_plan.crashes plan);
  List.iter
    (fun (at_ns, restart_ns) ->
      Sched.at sched ~ns:at_ns (fun () ->
          if (not !finished) && Option.is_some !core then begin
            tracef "coord: crash — epoch %d 's lease table and connections lost" !epoch;
            Net.crash_coordinator net;
            core := None
          end);
      Sched.at sched ~ns:restart_ns (fun () ->
          if (not !finished) && Option.is_none !core then begin
            boot ();
            tracef "coord: restarted as epoch %d" !epoch
          end))
    (Fault_plan.coord_crashes plan);

  (* ---- run to completion or the horizon ---- *)
  let ending = Sched.run sched ~until_ns:cfg.horizon_ns in
  let records = List.rev !records_rev in
  let counts = Array.make total 0 in
  List.iter
    (fun (r : Journal.record) ->
      if r.Journal.trial >= 0 && r.Journal.trial < total then
        counts.(r.Journal.trial) <- counts.(r.Journal.trial) + 1)
    records;
  let first p =
    let rec go i =
      if i >= total then None else if p counts.(i) then Some i else go (i + 1)
    in
    go 0
  in
  (* The worker-side checker. A repeat under the same (epoch, lease) is
     a duplicated grant frame — benign, dedup absorbs it. A repeat
     under a different epoch rode a coordinator recovery — the whole
     lease table was re-derived from the journal, which is a reconcile.
     A repeat within one epoch under two different leases is legitimate
     only if the earlier-granted lease was requeued: a shard lives in
     at most one lease at a time, so for the range to travel twice the
     first grant must have been settled, and a verified retire proves
     the trials journaled (they would not travel again). An un-requeued
     repeat means a lease was retired on a stale incarnation's word —
     the fencing bug. Grant order is by lease id (ids are issued
     monotonically within an incarnation), not by execution order: a
     reordered grant frame can arrive — and run — after its range was
     requeued and re-granted. *)
  let reexec () =
    let tbl : (int * int, int * int * int) Hashtbl.t = Hashtbl.create 256 in
    let rec scan = function
      | [] -> None
      | (widx, id, epoch, lease, inc) :: rest -> (
          match Hashtbl.find_opt tbl (widx, id) with
          | Some (epoch', lease', inc')
            when epoch = epoch' && lease <> lease' && inc = inc'
                 && not (Hashtbl.mem requeued (epoch, min lease lease')) ->
              Some (Reexec { worker = Printf.sprintf "w%d" widx; trial = id })
          | _ ->
              Hashtbl.replace tbl (widx, id) (epoch, lease, inc);
              scan rest)
    in
    scan (List.rev !exec_rev)
  in
  let violation =
    match first (fun c -> c > 1) with
    | Some id -> Some (Duplicate id)
    | None ->
        if not !finished then
          Some
            (Stalled
               (Printf.sprintf "%s at %dms with %d/%d trial(s) journaled"
                  (match ending with
                  | `Horizon -> "horizon"
                  | `Drained -> "events drained")
                  (Sched.now_ns sched / 1_000_000)
                  (List.length records) total))
        else (
          match first (fun c -> c = 0) with
          | Some id -> Some (Hole id)
          | None -> reexec ())
  in
  {
    violation;
    fired = Fault_plan.fired plan;
    records;
    trace = List.rev !trace_rev;
    events = Sched.executed sched;
    end_ns = Sched.now_ns sched;
    status_probes = List.rev !status_probes_rev;
  }

let journal_bytes r = String.concat "" (List.map (fun r -> Journal.to_line r ^ "\n") r.records)
