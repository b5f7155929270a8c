module Campaign = Ffault_campaign
module Pool = Campaign.Pool
module Journal = Campaign.Journal
module Json = Campaign.Json
module Telemetry_io = Campaign.Telemetry_io
module Metrics = Ffault_telemetry.Metrics
module Tracer = Ffault_telemetry.Tracer
module Retry = Ffault_supervise.Retry

let m_leases = Metrics.counter "dist.worker_leases"
let m_trials = Metrics.counter "dist.worker_trials"
let m_reconnects = Metrics.counter "dist.reconnects"

type config = { endpoint : Transport.endpoint; name : string; domains : int }

let default_name () =
  let host = try Unix.gethostname () with Unix.Unix_error _ -> "worker" in
  Fmt.str "%s-%d" host (Unix.getpid ())

let config ?name ?(domains = 1) endpoint =
  if domains < 1 then invalid_arg "Worker.config: domains < 1";
  let name = match name with Some n -> n | None -> default_name () in
  { endpoint; name; domains }

(* Bounded backoff for (re)connecting to the coordinator — the same
   Retry machinery the trial engine uses, seeded by the worker name so
   a fleet restarting against one coordinator does not thundering-herd.
   Generous on purpose: the schedule must ride out a coordinator crash
   plus its restart (~23 s worst case end to end). *)
let default_retry =
  Retry.policy ~max_retries:8 ~base_backoff_ns:250_000_000
    ~max_backoff_ns:5_000_000_000 ()

type summary = {
  leases_run : int;
  trials_run : int;
  trials_skipped : int;
  reconnects : int;
  stop_reason : string;
}

(* The worker side of the protocol, as pure classification — shared by
   this blocking socket driver and the netsim worker actor, so the
   simulated worker cannot drift from the real one. *)
module Protocol = struct
  type welcome = {
    epoch : int;
    spec : Campaign.Spec.t;
    supervision : Pool.supervision;
    hb_interval_s : float;
  }

  let hello ~name ~domains ~last_epoch =
    Codec.Hello { version = Wire.version; name; domains; last_epoch }

  let welcome_reply = function
    | Codec.Welcome { version; epoch; spec; supervision; hb_interval_s } ->
        if version <> Wire.version then
          Error
            (Fmt.str "version mismatch: coordinator speaks %d, we speak %d" version
               Wire.version)
        else Ok { epoch; spec; supervision; hb_interval_s }
    | Codec.Bye { reason } -> Error (Fmt.str "rejected: %s" reason)
    | m -> Error (Fmt.str "expected welcome, got %a" Codec.pp m)

  type reply =
    | Granted of { lease : int; epoch : int; lo : int; hi : int; done_ids : int list }
    | Backoff of float
    | Stop of string
    | Ignore
    | Unexpected of string

  let lease_reply spec = function
    | Codec.Lease { lease; epoch; lo; hi; done_ids } ->
        let total = Campaign.Grid.total_trials spec in
        if 0 <= lo && lo <= hi && hi <= total then
          Granted { lease; epoch; lo; hi; done_ids }
        else
          Unexpected
            (Fmt.str "lease #%d [%d,%d) is outside the grid of %d trials" lease lo hi
               total)
    | Codec.Wait { seconds } -> Backoff seconds
    | Codec.Bye { reason } -> Stop reason
    | Codec.Heartbeat _ -> Ignore (* tolerated, not expected *)
    | m -> Unexpected (Fmt.str "expected lease, got %a" Codec.pp m)

  (* [lo, hi) cut at each done id inside it, from the lowest up *)
  let ids_to_run ~lo ~hi ~done_ids =
    let rec cut from acc = function
      | d :: rest when from <= d && d < hi ->
          cut (d + 1) (if from < d then (from, d) :: acc else acc) rest
      | _ :: rest -> cut from acc rest
      | [] -> List.rev (if from < hi then (from, hi) :: acc else acc)
    in
    cut lo [] (List.sort_uniq Int.compare done_ids)
end

(* The observability payload of one beat: the current metrics snapshot
   (cheap — a few hundred counter reads and one read of
   /proc/self/status for the peak-RSS gauge) and, when tracing, whatever
   spans accumulated since the last beat (pid-less Chrome shape — the
   coordinator's merge assigns the pid row). [keep] also records the
   spans locally so [--trace] can write this worker's own file at the
   end. *)
let piggyback ~keep () =
  let snapshot = Some (Telemetry_io.to_json (Telemetry_io.snapshot ())) in
  let spans =
    if not (Tracer.enabled ()) then None
    else
      match Campaign.Trace_merge.of_tracer_events (Tracer.drain ()) with
      | [] -> None
      | batch ->
          keep batch;
          Some (Json.List batch)
  in
  Codec.Heartbeat { snapshot; spans }

(* The heartbeat thread: one [Heartbeat] frame per interval until
   stopped. Send failures are ignored here — the main loop is about to
   see the same broken socket on its next send or recv. *)
let start_heartbeat conn ~interval_s ~beat =
  let stop = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        let slice = 0.05 in
        let rec sleep remaining =
          if remaining > 0.0 && not (Atomic.get stop) then begin
            Thread.delay (Float.min slice remaining);
            sleep (remaining -. slice)
          end
        in
        while not (Atomic.get stop) do
          ignore (Transport.send_msg conn (beat ()));
          sleep interval_s
        done)
      ()
  in
  fun () ->
    Atomic.set stop true;
    Thread.join thread

let write_local_trace path spans =
  let pid = Unix.getpid () in
  let stamped =
    List.map
      (fun s ->
        match s with
        | Json.Obj fields -> Json.Obj (fields @ [ ("pid", Json.Int pid) ])
        | other -> other)
      spans
  in
  let doc =
    Json.Obj
      [ ("traceEvents", Json.List stamped); ("displayTimeUnit", Json.Str "ms") ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Json.to_string doc))

(* How one connected session ends: the campaign is over ([Done]), the
   connection died and a fresh session should resume ([Lost]), or the
   protocol itself went wrong and retrying is pointless ([Fatal]). *)
type session_end = Done of string | Lost of string | Fatal of string

let run ?(on_event = fun _ -> ()) ?(on_warn = fun _ -> ()) ?(retry = default_retry)
    ?trace_path cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let seed = Int64.of_int (Hashtbl.hash cfg.name) in
  (* state that survives reconnects: the coordinator epoch we last saw,
     the in-flight lease with every record it produced (for resend),
     and the lifetime counters *)
  let last_epoch = ref 0 in
  let cur : (int * int * Journal.record list ref) option ref = ref None in
  let leases_run = ref 0 in
  let trials_run = ref 0 in
  let trials_skipped = ref 0 in
  let reconnects = ref 0 in
  let failures = ref 0 in
  (* the heartbeat thread and the engine both drain the tracer; [keep]
     is the only shared state and stays mutex-guarded *)
  let spans_lock = Mutex.create () in
  let local_spans_rev = ref [] in
  let keep batch =
    if trace_path <> None then begin
      Mutex.lock spans_lock;
      local_spans_rev := List.rev_append batch !local_spans_rev;
      Mutex.unlock spans_lock
    end
  in
  let run_session conn =
    let fin r =
      Transport.close conn;
      r
    in
    match
      Transport.send_msg conn
        (Protocol.hello ~name:cfg.name ~domains:cfg.domains ~last_epoch:!last_epoch)
    with
    | Error e -> fin (Lost e)
    | Ok () -> (
        match Transport.recv_msg conn with
        | `Closed -> fin (Lost "connection closed before welcome")
        | `Error e -> fin (Lost e)
        | `Msg m -> (
            match Protocol.welcome_reply m with
            | Error e -> fin (Fatal e)
            | Ok { Protocol.epoch; spec; supervision; hb_interval_s } ->
                failures := 0;
                if !last_epoch > 0 && epoch <> !last_epoch then
                  on_event
                    (Fmt.str "coordinator is now epoch %d (was %d)" epoch !last_epoch);
                last_epoch := epoch;
                let beat = piggyback ~keep in
                let stop_hb = start_heartbeat conn ~interval_s:hb_interval_s ~beat in
                let fin r =
                  stop_hb ();
                  fin r
                in
                (* Replay the lease in flight when the last connection
                   died: every record it produced, then its [Complete]
                   under the original grant epoch. The coordinator
                   dedups the records by trial id; a stale-epoch
                   [Complete] is fenced there and the shard's fate
                   decided from the journal — either way, no trial is
                   re-executed here. *)
                let resend () =
                  match !cur with
                  | None -> Ok ()
                  | Some (lease, grant_epoch, records_rev) ->
                      on_event
                        (Fmt.str "resending lease #%d: %d record(s) and its completion"
                           lease
                           (List.length !records_rev));
                      let rec send_all = function
                        | [] ->
                            Transport.send_msg conn
                              (Codec.Complete { lease; epoch = grant_epoch })
                        | r :: rest -> (
                            match Transport.send_msg conn (Codec.Result r) with
                            | Ok () -> send_all rest
                            | Error _ as e -> e)
                      in
                      Result.map (fun () -> cur := None) (send_all (List.rev !records_rev))
                in
                let run_lease ~lease ~epoch ~lo ~hi ~done_ids =
                  on_event
                    (Fmt.str "lease #%d [%d,%d): %d trial(s), %d already journaled" lease
                       lo hi (hi - lo) (List.length done_ids));
                  (* if the coordinator vanishes mid-lease the sends
                     start failing; note the first error, let the
                     (bounded) range finish — buffering every record —
                     and resend the lot on the next session *)
                  let buf = ref [] in
                  cur := Some (lease, epoch, buf);
                  let send_error = ref None in
                  let on_record r =
                    incr trials_run;
                    Metrics.incr m_trials;
                    buf := r :: !buf;
                    if !send_error = None then
                      match Transport.send_msg conn (Codec.Result r) with
                      | Ok () -> ()
                      | Error e -> send_error := Some e
                  in
                  ignore
                    (Pool.run_trials ~domains:cfg.domains
                       ~ids:(Protocol.ids_to_run ~lo ~hi ~done_ids)
                       ~supervision ~on_record spec);
                  incr leases_run;
                  Metrics.incr m_leases;
                  trials_skipped := !trials_skipped + List.length done_ids;
                  match !send_error with
                  | Some e -> Error (Fmt.str "streaming results: %s" e)
                  | None -> (
                      (* flush beat ahead of [Complete]: the coordinator
                         sees this lease's tail spans and final counters
                         even if the campaign ends on our completion *)
                      ignore (Transport.send_msg conn (beat ()));
                      match Transport.send_msg conn (Codec.Complete { lease; epoch }) with
                      | Ok () ->
                          cur := None;
                          Ok ()
                      | Error _ as e -> e)
                in
                (* A failed send may have raced the coordinator's
                   shutdown: the [Bye] is written before the socket
                   closes, so it is ordered before the EOF and still
                   readable. Prefer it over the send error; a
                   coordinator that actually died yields [`Closed] and
                   the loss stands (to be retried). *)
                let bye_or err =
                  match Transport.recv_msg conn with
                  | `Msg (Codec.Bye { reason }) -> Done reason
                  | `Msg _ | `Closed | `Error _ -> Lost err
                in
                let rec serve () =
                  match Transport.send_msg conn Codec.Request with
                  | Error e -> bye_or e
                  | Ok () -> reply (Transport.recv_msg conn)
                and reply = function
                  | `Msg m -> (
                      match Protocol.lease_reply spec m with
                      | Protocol.Granted { lease; epoch; lo; hi; done_ids } -> (
                          match run_lease ~lease ~epoch ~lo ~hi ~done_ids with
                          | Ok () -> serve ()
                          | Error e -> bye_or e)
                      | Protocol.Backoff seconds -> (
                          (* [Wait] bounds the idle, it is not a nap: the
                             coordinator's [Bye] at the end of the
                             campaign arrives on this socket and ends the
                             wait at once *)
                          match
                            Transport.recv_within conn ~timeout_s:(Float.max 0.01 seconds)
                          with
                          | `Timeout -> serve ()
                          | (`Msg _ | `Closed | `Error _) as r -> reply r)
                      | Protocol.Stop reason -> Done reason
                      | Protocol.Ignore -> serve ()
                      | Protocol.Unexpected e -> Fatal e)
                  | `Closed -> Lost "connection closed"
                  | `Error e -> Lost e
                in
                fin (match resend () with Error e -> bye_or e | Ok () -> serve ())))
  in
  let backoff what e k =
    incr failures;
    if !failures > retry.Retry.max_retries then
      Error (Fmt.str "%s: %s (gave up after %d consecutive failure(s))" what e !failures)
    else begin
      let delay_s = float_of_int (Retry.backoff_ns retry ~seed ~attempt:!failures) /. 1e9 in
      on_warn
        (Fmt.str "%s: %s — retry %d/%d in %.2fs" what e !failures retry.Retry.max_retries
           delay_s);
      Thread.delay delay_s;
      k ()
    end
  in
  let rec go () =
    match Transport.connect cfg.endpoint with
    | Error e -> backoff "connect failed" e go
    | Ok conn -> (
        match run_session conn with
        | Done reason -> Ok reason
        | Fatal e -> Error e
        | Lost e ->
            incr reconnects;
            Metrics.incr m_reconnects;
            backoff "connection lost" e go)
  in
  let finish r =
    if trace_path <> None && Tracer.enabled () then
      keep (Campaign.Trace_merge.of_tracer_events (Tracer.drain ()));
    Option.iter (fun path -> write_local_trace path (List.rev !local_spans_rev)) trace_path;
    r
  in
  match go () with
  | Ok reason ->
      on_event (Fmt.str "coordinator: %s" reason);
      finish
        (Ok
           {
             leases_run = !leases_run;
             trials_run = !trials_run;
             trials_skipped = !trials_skipped;
             reconnects = !reconnects;
             stop_reason = reason;
           })
  | Error e -> finish (Error e)
