module Campaign = Ffault_campaign
module Json = Campaign.Json
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Pool = Campaign.Pool
module Metrics = Ffault_telemetry.Metrics
module Events = Ffault_telemetry.Events
module Clock = Ffault_telemetry.Clock

type config = {
  endpoint : Transport.endpoint;
  lease_trials : int;
  lease_timeout_s : float;
  hb_interval_s : float;
  max_workers : int;
  supervision : Codec.supervision;
}

let config ?(lease_trials = 1000) ?(lease_timeout_s = 30.0) ?(hb_interval_s = 2.0)
    ?(max_workers = 64) ?(supervision = Codec.no_supervision) endpoint =
  if lease_trials < 1 then invalid_arg "Coordinator.config: lease_trials < 1";
  if (not (Float.is_finite lease_timeout_s)) || lease_timeout_s <= 0.0 then
    invalid_arg "Coordinator.config: lease_timeout_s must be finite and positive";
  if (not (Float.is_finite hb_interval_s)) || hb_interval_s <= 0.0 then
    invalid_arg "Coordinator.config: hb_interval_s must be finite and positive";
  if hb_interval_s >= lease_timeout_s then
    invalid_arg "Coordinator.config: heartbeat interval must be under the lease timeout";
  if max_workers < 1 then invalid_arg "Coordinator.config: max_workers < 1";
  { endpoint; lease_trials; lease_timeout_s; hb_interval_s; max_workers; supervision }

type summary = Core.summary = {
  pool : Pool.summary;
  workers : Core.wview list;
  epoch : int;
  leases_granted : int;
  leases_completed : int;
  leases_expired : int;
  worker_spans : (string * Ffault_telemetry.Tracer.event list) list;
}

(* ---- the serve loop: a socket driver around the Core engine ---- *)

let io =
  { Core.peer = Transport.peer; send = Transport.send_msg; close = Transport.close }

let serve ?(resume = false) ?(observe = fun _ -> ()) ?on_skip ?(on_warn = fun _ -> ())
    ?(on_event = fun _ -> ()) ?status ~root cfg spec =
  let ( let* ) = Result.bind in
  (* A worker dying mid-write must be an EPIPE in [send], not a fatal
     signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let* dir, st = Checkpoint.open_campaign ~resume ?on_skip ~on_warn ~root spec in
  (* Take journal ownership before listening: the epoch every grant of
     this incarnation carries is persisted first, so even if we crash
     right after, the next incarnation bumps past us and fences
     anything we might have granted. *)
  let epoch = Checkpoint.claim_ownership ~dir in
  let* listener = Transport.listen cfg.endpoint in
  let* http =
    match status with
    | None -> Ok None
    | Some ep -> (
        match Http.listen ep with
        | Ok h -> Ok (Some h)
        | Error _ as e ->
            Transport.close_listener listener;
            e)
  in
  let writer = Journal.create_writer ~path:(Checkpoint.journal_path ~dir) in
  (* the structured event log: everything the engine narrates, at the
     severity it was raised with, ring-buffered for /events and
     streamed to events.jsonl *)
  let events = Events.create () in
  let ev_oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 (Filename.concat dir "events.jsonl")
  in
  Events.set_sink events
    (Some
       (fun e ->
         output_string ev_oc (Json.to_string (Status.event_json e));
         output_char ev_oc '\n';
         flush ev_oc));
  let on_event severity msg =
    Events.emit events ~severity ~scope:"dist" msg;
    on_event msg
  in
  let clients : (Unix.file_descr, Transport.conn Core.client) Hashtbl.t =
    Hashtbl.create 16
  in
  let core =
    Core.create ~epoch ~observe ~on_event
      ~on_drop:(fun c -> Hashtbl.remove clients (Transport.fd (Core.conn c)))
      ~io
      ~append:(Journal.append writer)
      ~st ~spec ~lease_trials:cfg.lease_trials ~lease_timeout_s:cfg.lease_timeout_s
      ~hb_interval_s:cfg.hb_interval_s ~max_workers:cfg.max_workers
      ~supervision:cfg.supervision ()
  in
  let respond =
    Status.respond
      {
        Status.view = (fun () -> Core.view core);
        events = (fun ~limit -> Events.tail ~limit events);
        metrics = (fun () -> Metrics.expose ());
      }
  in
  Events.emit events ~scope:"dist"
    (Fmt.str "serving %s on %s as epoch %d%s%s" spec.Campaign.Spec.name
       (Transport.endpoint_to_string cfg.endpoint)
       epoch
       (if epoch > 1 then Fmt.str " (restart #%d)" (epoch - 1) else "")
       (match status with
       | Some ep -> Fmt.str " (status on %s)" (Transport.endpoint_to_string ep)
       | None -> ""));
  let started = Clock.now_ns () in
  let step () =
    let fds =
      (Transport.listener_fd listener
      :: Hashtbl.fold (fun fd _ acc -> fd :: acc) clients [])
      @ (match http with Some h -> Http.fds h | None -> [])
    in
    let readable =
      match Unix.select fds [] [] 0.05 with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        if fd = Transport.listener_fd listener then (
          match Transport.accept listener with
          | Ok conn ->
              Hashtbl.replace clients (Transport.fd conn) (Core.add_client core conn)
          | Error m -> on_warn m)
        else
          match Hashtbl.find_opt clients fd with
          | None -> ()
          | Some c -> (
              match Transport.recv_step (Core.conn c) with
              | `Frames frames -> List.iter (Core.deliver core c) frames
              | `Closed -> Core.client_closed core c ~why:"connection closed"
              | `Error why -> Core.client_closed core c ~why))
      readable;
    (match http with
    | Some h -> Http.handle h ~readable ~respond
    | None -> ());
    Core.tick core;
    (* group commit per turn: no record waits out the next select *)
    Journal.flush writer
  in
  let finish () =
    Core.finish core;
    (match http with Some h -> Http.close h | None -> ());
    Transport.close_listener listener;
    Journal.close_writer writer;
    Events.set_sink events None;
    close_out_noerr ev_oc
  in
  (* Serve past the last journaled Result until every lease is settled:
     the finishing worker's flush beat and [Complete] follow its last
     Result, and a silent holder's lease expires within the timeout. *)
  match
    while not (Core.settled core) do
      step ()
    done
  with
  | () ->
      Events.emit events ~scope:"dist" "campaign complete";
      finish ();
      let summary = Core.summary core ~wall_s:(Clock.ns_to_s (Clock.now_ns () - started)) in
      Campaign.Telemetry_io.write ~dir (Campaign.Telemetry_io.snapshot ());
      Checkpoint.write_atomic
        ~path:(Checkpoint.workers_path ~dir)
        (Json.to_string (Core.workers_json summary) ^ "\n");
      Ok summary
  | exception e ->
      finish ();
      raise e
