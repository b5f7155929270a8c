module Campaign = Ffault_campaign
module Json = Campaign.Json
module Spec = Campaign.Spec
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Pool = Campaign.Pool
module Grid = Campaign.Grid
module Clock = Ffault_runtime.Clock
module Metrics = Ffault_telemetry.Metrics
module Events = Ffault_telemetry.Events
module Tracer = Ffault_telemetry.Tracer
module Trace_merge = Campaign.Trace_merge

let m_leases_granted = Metrics.counter "dist.leases_granted"
let m_leases_completed = Metrics.counter "dist.leases_completed"
let m_leases_expired = Metrics.counter "dist.leases_expired"
let m_results = Metrics.counter "dist.results"
let m_deduped = Metrics.counter "dist.results_deduped"
let m_connects = Metrics.counter "dist.worker_connects"
let m_reconnects = Metrics.counter "dist.worker_reconnects"
let m_stale_completes = Metrics.counter "dist.stale_completes"

(* Heartbeat frames received. Every frame renews its sender's liveness
   slot, but only a [Codec.Heartbeat] counts here. *)
let m_heartbeats = Metrics.counter "supervise.heartbeats"

type 'c io = {
  peer : 'c -> string;
  send : 'c -> Codec.msg -> (unit, string) result;
  close : 'c -> unit;
}

type wview = {
  v_name : string;
  v_peer : string;
  v_domains : int;
  v_connected : bool;
  v_hb_age_s : float option;  (* since the last frame; None = never heard *)
  v_granted : int;
  v_completed : int;
  v_expired : int;
  v_results : int;
  v_deduped : int;
  v_reconnects : int;
  v_telemetry : Json.t option;
}

type summary = {
  pool : Pool.summary;
  workers : wview list;
  epoch : int;
  leases_granted : int;
  leases_completed : int;
  leases_expired : int;
  worker_spans : (string * Tracer.event list) list;
}

(* ---- mutable per-worker bookkeeping (keyed by hello name) ---- *)

type wstat = {
  name : string;
  mutable peer : string;
  mutable domains : int;
  mutable granted : int;
  mutable completed : int;
  mutable expired : int;
  mutable results : int;
  mutable deduped : int;
  mutable reconnects : int;
  mutable connected : bool;
  mutable last_seen_ns : int;  (* engine clock at the last frame; -1 = never *)
  mutable telemetry : Json.t option;  (* last piggybacked snapshot *)
  spans : Trace_merge.row;  (* piggybacked span batches *)
}

let wview_of ~now w =
  {
    v_name = w.name;
    v_peer = w.peer;
    v_domains = w.domains;
    v_connected = w.connected;
    v_hb_age_s =
      (if w.last_seen_ns < 0 then None
       else Some (float_of_int (now - w.last_seen_ns) /. 1e9));
    v_granted = w.granted;
    v_completed = w.completed;
    v_expired = w.expired;
    v_results = w.results;
    v_deduped = w.deduped;
    v_reconnects = w.reconnects;
    v_telemetry = w.telemetry;
  }

(* Fleet-wide counters: per-worker snapshots summed by counter name.
   Gauges and histograms stay per-worker (summing a gauge is
   meaningless); counters are flows, so the sum is the fleet total. *)
let merge_counter_snapshots snaps =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun snap ->
      match Json.member "counters" snap with
      | Some (Json.Obj fields) ->
          List.iter
            (fun (name, v) ->
              match Json.get_int v with
              | Some i ->
                  Hashtbl.replace tbl name
                    (i + Option.value ~default:0 (Hashtbl.find_opt tbl name))
              | None -> ())
            fields
      | _ -> ())
    snaps;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let workers_json s =
  let fleet =
    merge_counter_snapshots (List.filter_map (fun w -> w.v_telemetry) s.workers)
  in
  Json.Obj
    ([
       ("version", Json.Int 2);
       ("epoch", Json.Int s.epoch);
       ("restarts", Json.Int (max 0 (s.epoch - 1)));
       ( "leases",
         Json.Obj
           [
             ("granted", Json.Int s.leases_granted);
             ("completed", Json.Int s.leases_completed);
             ("expired", Json.Int s.leases_expired);
           ] );
       ( "workers",
         Json.List
           (List.map
              (fun w ->
                Json.Obj
                  ([
                     ("name", Json.Str w.v_name);
                     ("peer", Json.Str w.v_peer);
                     ("domains", Json.Int w.v_domains);
                     ("granted", Json.Int w.v_granted);
                     ("completed", Json.Int w.v_completed);
                     ("expired", Json.Int w.v_expired);
                     ("results", Json.Int w.v_results);
                     ("deduped", Json.Int w.v_deduped);
                     ("reconnects", Json.Int w.v_reconnects);
                   ]
                  @
                  match w.v_telemetry with
                  | Some t -> [ ("telemetry", t) ]
                  | None -> []))
              s.workers) );
     ]
    @
    (* merged per-worker counters; absent when no worker piggybacked a
       snapshot, so pre-observability artifacts keep their old shape *)
    match fleet with
    | [] -> []
    | fleet ->
        [ ("fleet", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) fleet)) ])

(* ---- the engine ---- *)

type 'c client = {
  c_conn : 'c;
  mutable cname : string option;  (* set by Hello *)
  mutable slot : int;  (* heartbeat slot; -1 before Hello, or with none free *)
  mutable c_dropped : bool;
}

type 'c t = {
  io : 'c io;
  append : Journal.record -> unit;
  st : Checkpoint.t;
  spec : Spec.t;
  cells : Grid.cell array;
  clock : Clock.t;
  created_ns : int;  (* clock at create: elapsed time base for rates *)
  total : int;
  skipped : int;
  epoch : int;  (* this incarnation (owner.json); grants carry it *)
  fence_epochs : bool;
  lease_timeout_s : float;
  hb_interval_s : float;
  supervision : Codec.supervision;
  verify_complete : bool;
  observe : Journal.record -> unit;
  on_event : Events.severity -> string -> unit;
  on_requeue : string -> int -> unit;
  on_drop : 'c client -> unit;
  leases : Lease.t;
  g_workers : Metrics.gauge;
      (* dist.workers_connected, registered by [create]: a process that
         never coordinates (a pool run, a worker) reports no such gauge *)
  beats : int array;
      (* per heartbeat slot: the clock at its holder's last frame (a
         slot is stamped when a Hello takes it), -1 = never held.
         Single-threaded like the rest of the engine. *)
  mutable free_slots : int list;
  mutable clients : 'c client list;
  wstats : (string, wstat) Hashtbl.t;
  tally : Pool.tally;  (* the records this incarnation journaled *)
  mutable stale_completes : int;  (* Completes fenced for a stale epoch *)
}

let create ?(clock = Clock.monotonic) ?(epoch = 1) ?(fence_epochs = true)
    ?(verify_complete = true) ?(observe = fun _ -> ()) ?(on_event = fun _ _ -> ())
    ?(on_requeue = fun _ _ -> ()) ?(on_drop = fun _ -> ())
    ~io ~append ~st ~spec ~lease_trials ~lease_timeout_s ~hb_interval_s
    ~max_workers ~supervision () =
  if epoch < 1 then invalid_arg "Core.create: epoch < 1";
  if max_workers < 1 then invalid_arg "Core.create: max_workers < 1";
  let total = Grid.total_trials spec in
  let leases =
    Lease.create ~clock ~total ~lease_trials
      ~timeout_ns:(int_of_float (lease_timeout_s *. 1e9))
      ()
  in
  (* Recovery: whatever the journal already proves finished is never
     granted again. A fresh campaign pre-retires nothing; a restarted
     incarnation rebuilds its retired set here, from the journal's
     done-mask — the lease table itself died with the old process and
     is deliberately not trusted (cf. recoverable consensus: private
     state is lost on crash, only the persistent log survives). *)
  let recovered = ref 0 in
  for shard = 0 to Lease.n_shards leases - 1 do
    let lo, hi = Lease.shard_range leases shard in
    let full = ref (hi > lo) in
    for trial = lo to hi - 1 do
      if not (Checkpoint.is_done st trial) then full := false
    done;
    if !full then begin
      Lease.retire leases ~shard;
      incr recovered
    end
  done;
  if !recovered > 0 then
    on_event Events.Info
      (Fmt.str "recovery: %d of %d shard(s) already complete in the journal"
         !recovered (Lease.n_shards leases));
  {
    io;
    append;
    st;
    spec;
    cells = Grid.cells spec;
    clock;
    created_ns = Clock.now_ns clock;
    total;
    skipped = Checkpoint.completed st;
    epoch;
    fence_epochs;
    lease_timeout_s;
    hb_interval_s;
    supervision;
    verify_complete;
    observe;
    on_event;
    on_requeue;
    on_drop;
    leases;
    g_workers = Metrics.gauge "dist.workers_connected";
    beats = Array.make max_workers (-1);
    free_slots = List.init max_workers Fun.id;
    clients = [];
    wstats = Hashtbl.create 16;
    tally = Pool.tally ();
    stale_completes = 0;
  }

let conn c = c.c_conn
let dropped c = c.c_dropped

let add_client t conn =
  let c = { c_conn = conn; cname = None; slot = -1; c_dropped = false } in
  t.clients <- c :: t.clients;
  Metrics.add_gauge t.g_workers 1;
  c

let wstat_of t name =
  match Hashtbl.find_opt t.wstats name with
  | Some w -> w
  | None ->
      let w =
        {
          name;
          peer = "?";
          domains = 0;
          granted = 0;
          completed = 0;
          expired = 0;
          results = 0;
          deduped = 0;
          reconnects = -1 (* first connect is not a reconnect *);
          connected = false;
          last_seen_ns = -1;
          telemetry = None;
          spans = Trace_merge.row ();
        }
      in
      Hashtbl.replace t.wstats name w;
      w

let stat_of_client t c = Option.map (wstat_of t) c.cname

(* The record carries its trial's seed and, as far as a journal line
   carries a cell, its trial's cell. *)
let is_own_trial t (r : Journal.record) =
  let trial = Grid.trial_of_cells t.spec t.cells r.Journal.trial in
  Int64.equal r.Journal.seed trial.Grid.seed
  && Journal.same_line_cell trial.Grid.cell r.Journal.cell

let is_done t = Checkpoint.completed t.st >= t.total
let settled t = is_done t && Lease.outstanding t.leases = 0

let drop_leases_of t ~why name =
  match Lease.fail t.leases ~owner:name with
  | [] -> ()
  | lost ->
      let w = wstat_of t name in
      w.expired <- w.expired + List.length lost;
      Metrics.add m_leases_expired (List.length lost);
      List.iter
        (fun (l : Lease.lease) ->
          t.on_requeue name l.Lease.id;
          t.on_event Events.Warn
            (Fmt.str "lease #%d [%d,%d) reclaimed from %s (%s)" l.Lease.id l.Lease.lo
               l.Lease.hi name why))
        lost

let drop_client t ~why c =
  if not c.c_dropped then begin
    c.c_dropped <- true;
    t.clients <- List.filter (fun c' -> c' != c) t.clients;
    (match c.cname with
    | Some name ->
        (wstat_of t name).connected <- false;
        t.on_event Events.Warn (Fmt.str "worker %s left (%s)" name why);
        drop_leases_of t ~why name
    | None -> ());
    if c.slot >= 0 then begin
      t.free_slots <- c.slot :: t.free_slots;
      c.slot <- -1
    end;
    Metrics.add_gauge t.g_workers (-1);
    t.on_drop c;
    t.io.close c.c_conn
  end

let client_closed t c ~why = drop_client t ~why c

let send_or_drop t c msg =
  match t.io.send c.c_conn msg with
  | Ok () -> ()
  | Error why -> drop_client t ~why c

let done_ids_in t lo hi =
  let ids = ref [] in
  for id = hi - 1 downto lo do
    if Checkpoint.is_done t.st id then ids := id :: !ids
  done;
  !ids

let missing_in t (l : Lease.lease) =
  let n = ref 0 in
  for trial = l.Lease.lo to l.Lease.hi - 1 do
    if not (Checkpoint.is_done t.st trial) then incr n
  done;
  !n

(* A Request from an owner we still hold live leases for means the
   worker moved on without us seeing its Complete — lost or reordered
   frames. On an ordered socket stream Complete always precedes the
   next Request, so this never fires there; under simulated loss it is
   what keeps a shard from being hostage to a chatty worker that no
   longer knows it owns it. Retire what the journal proves finished,
   requeue the rest (the worker will not re-send those results). *)
let reconcile t name =
  List.iter
    (fun (owner, (l : Lease.lease)) ->
      if owner = name then begin
        let w = wstat_of t name in
        let missing = missing_in t l in
        if missing = 0 then begin
          ignore (Lease.complete t.leases ~id:l.Lease.id);
          w.completed <- w.completed + 1;
          Metrics.incr m_leases_completed;
          t.on_event Events.Info
            (Fmt.str "lease #%d [%d,%d) of %s retired at request (complete lost in flight)"
               l.Lease.id l.Lease.lo l.Lease.hi name)
        end
        else begin
          ignore (Lease.revoke t.leases ~id:l.Lease.id);
          w.expired <- w.expired + 1;
          Metrics.incr m_leases_expired;
          t.on_requeue name l.Lease.id;
          t.on_event Events.Warn
            (Fmt.str
               "lease #%d [%d,%d) of %s reconciled at request: %d trial(s) unjournaled — requeued"
               l.Lease.id l.Lease.lo l.Lease.hi name missing)
        end
      end)
    (Lease.live t.leases)

let handle_msg t c msg =
  (* any frame is liveness *)
  (match c.cname with
  | Some name ->
      let now = Clock.now_ns t.clock in
      if c.slot >= 0 then t.beats.(c.slot) <- now;
      (wstat_of t name).last_seen_ns <- now;
      Lease.renew t.leases ~owner:name
  | None -> ());
  match (msg : Codec.msg) with
  | Codec.Hello { version; name; domains; last_epoch } ->
      if version <> Wire.version then begin
        send_or_drop t c
          (Codec.Bye
             {
               reason =
                 Fmt.str "version mismatch: coordinator speaks %d, you speak %d"
                   Wire.version version;
             });
        drop_client t ~why:"version mismatch" c
      end
      else begin
        let w = wstat_of t name in
        w.peer <- t.io.peer c.c_conn;
        w.domains <- domains;
        w.connected <- true;
        w.last_seen_ns <- Clock.now_ns t.clock;
        w.reconnects <- w.reconnects + 1;
        if w.reconnects > 0 then Metrics.incr m_reconnects;
        Metrics.incr m_connects;
        c.cname <- Some name;
        (match t.free_slots with
        | slot :: rest ->
            t.free_slots <- rest;
            c.slot <- slot;
            t.beats.(slot) <- Clock.now_ns t.clock
        | [] -> () (* more workers than slots: liveness by lease expiry only *));
        t.on_event Events.Info
          (Fmt.str "worker %s joined from %s (%d domains)%s%s" name w.peer domains
             (if w.reconnects > 0 then Fmt.str " — reconnect #%d" w.reconnects else "")
             (if last_epoch > 0 && last_epoch <> t.epoch then
                Fmt.str " — returning from epoch %d" last_epoch
              else ""));
        send_or_drop t c
          (Codec.Welcome
             {
               version = Wire.version;
               epoch = t.epoch;
               spec = t.spec;
               supervision = t.supervision;
               hb_interval_s = t.hb_interval_s;
             })
      end
  | Codec.Request -> (
      match c.cname with
      | None -> drop_client t ~why:"request before hello" c
      | Some name ->
          reconcile t name;
          if is_done t then send_or_drop t c (Codec.Bye { reason = "campaign complete" })
          else (
            match Lease.grant t.leases ~owner:name with
            | Some l ->
                let w = wstat_of t name in
                w.granted <- w.granted + 1;
                Metrics.incr m_leases_granted;
                t.on_event Events.Info
                  (Fmt.str "lease #%d [%d,%d) -> %s" l.Lease.id l.Lease.lo l.Lease.hi
                     name);
                send_or_drop t c
                  (Codec.Lease
                     {
                       lease = l.Lease.id;
                       epoch = t.epoch;
                       lo = l.Lease.lo;
                       hi = l.Lease.hi;
                       done_ids = done_ids_in t l.Lease.lo l.Lease.hi;
                     })
            | None ->
                send_or_drop t c
                  (Codec.Wait { seconds = Float.min 1.0 (t.lease_timeout_s /. 4.0) })))
  | Codec.Result r ->
      let w = stat_of_client t c in
      if r.Journal.trial < 0 || r.Journal.trial >= t.total then
        (* out-of-grid id: protocol violation, not data *)
        drop_client t
          ~why:(Fmt.str "result for trial %d outside the grid" r.Journal.trial)
          c
      else if not (is_own_trial t r) then
        (* a worker built from another grid enumeration, or a buggy one:
           journaled, the record would count in another trial's cell *)
        drop_client t
          ~why:(Fmt.str "result for trial %d carries another trial's cell or seed"
                  r.Journal.trial)
          c
      else if Checkpoint.is_done t.st r.Journal.trial then begin
        (* zombie worker still streaming an expired lease, or a
           re-run after reclaim — journaled once already, drop *)
        Option.iter (fun w -> w.deduped <- w.deduped + 1) w;
        Metrics.incr m_deduped
      end
      else begin
        t.append r;
        Checkpoint.mark t.st r.Journal.trial;
        Pool.count t.tally r;
        Option.iter (fun w -> w.results <- w.results + 1) w;
        Metrics.incr m_results;
        t.observe r
      end
  | Codec.Complete { lease = id; epoch } ->
      if epoch <> t.epoch then begin
        (* A grant from another incarnation. Lease ids restart at 0 per
           incarnation, so [id] may well collide with a live lease this
           incarnation granted to someone else — the id means nothing
           here. Fence the frame and let the reconcile-at-request rule
           settle the sender's actual leases from the journal; its
           Results (same trial ids) were already dedup-accepted above. *)
        if t.fence_epochs then begin
          t.stale_completes <- t.stale_completes + 1;
          Metrics.incr m_stale_completes;
          t.on_event Events.Warn
            (Fmt.str "complete #%d fenced: grant epoch %d, coordinator epoch %d%s" id
               epoch t.epoch
               (match c.cname with Some n -> Fmt.str " (from %s)" n | None -> ""));
          Option.iter (fun name -> reconcile t name) c.cname
        end
        else
          (* the planted fencing bug (netsim --break-fencing): "the old
             incarnation verified this work before granting, trust its
             Complete" — retiring whatever live lease happens to carry
             the stale id, journal unchecked *)
          match Lease.complete t.leases ~id with
          | `Completed _ ->
              Option.iter (fun w -> w.completed <- w.completed + 1) (stat_of_client t c);
              Metrics.incr m_leases_completed
          | `Unknown -> ()
      end
      else (
        match Lease.find t.leases ~id with
        | None -> () (* stale lease: expired and re-issued; the re-lease owns it *)
        | Some l ->
            let missing = if t.verify_complete then missing_in t l else 0 in
            if missing = 0 then begin
              ignore (Lease.complete t.leases ~id);
              Option.iter (fun w -> w.completed <- w.completed + 1) (stat_of_client t c);
              Metrics.incr m_leases_completed
            end
            else begin
              (* completed with holes: take the shard back *)
              ignore (Lease.revoke t.leases ~id);
              Option.iter (fun w -> w.expired <- w.expired + 1) (stat_of_client t c);
              Metrics.incr m_leases_expired;
              Option.iter (fun name -> t.on_requeue name id) c.cname;
              t.on_event Events.Warn
                (Fmt.str "lease #%d completed with %d trial(s) unjournaled — requeued" id
                   missing)
            end)
  | Codec.Heartbeat { snapshot; spans } -> (
      Metrics.incr m_heartbeats;
      (* the piggybacked observability payload: latest snapshot wins,
         span batches accumulate for the merged trace when this process
         writes one *)
      match stat_of_client t c with
      | None -> ()
      | Some w ->
          (match snapshot with Some s -> w.telemetry <- Some s | None -> ());
          if Tracer.enabled () then Trace_merge.add w.spans spans)
  | Codec.Bye { reason } -> drop_client t ~why:(Fmt.str "bye: %s" reason) c
  | Codec.Welcome _ | Codec.Lease _ | Codec.Wait _ ->
      drop_client t ~why:"coordinator-bound stream carried a coordinator message" c

let deliver t c frame =
  if not c.c_dropped then
    match Codec.of_frame frame with
    | Ok msg -> handle_msg t c msg
    | Error why -> drop_client t ~why c

let tick t =
  (* lease expiry by silence: requeue, so the next Request re-issues
     the shard *)
  List.iter
    (fun (owner, (l : Lease.lease)) ->
      let w = wstat_of t owner in
      w.expired <- w.expired + 1;
      Metrics.incr m_leases_expired;
      t.on_requeue owner l.Lease.id;
      t.on_event Events.Warn
        (Fmt.str "lease #%d [%d,%d) of %s expired (no traffic for %gs)" l.Lease.id
           l.Lease.lo l.Lease.hi owner t.lease_timeout_s))
    (Lease.expire t.leases);
  (* drop connections whose heartbeat slot has been silent longer than
     the lease timeout; a client without a slot is watched by lease
     expiry alone. The reason keeps its "(watchdog)" suffix, which
     netsim traces and the /events goldens carry. *)
  let silence_ns = int_of_float (t.lease_timeout_s *. 1e9) in
  let now = Clock.now_ns t.clock in
  List.iter
    (fun c ->
      if c.slot >= 0 && now - t.beats.(c.slot) > silence_ns then
        drop_client t ~why:"heartbeat silence (watchdog)" c)
    t.clients

let finish t =
  (* the winning worker's [Complete] may still be in flight when the
     last result lands — a fully-journaled live lease is completed
     work, not an expiry *)
  List.iter
    (fun (owner, (l : Lease.lease)) ->
      if missing_in t l = 0 then begin
        ignore (Lease.complete t.leases ~id:l.Lease.id);
        let w = wstat_of t owner in
        w.completed <- w.completed + 1;
        Metrics.incr m_leases_completed
      end)
    (Lease.live t.leases);
  let cs = t.clients in
  List.iter (fun c -> ignore (t.io.send c.c_conn (Codec.Bye { reason = "campaign complete" }))) cs;
  List.iter (fun c -> drop_client t ~why:"campaign complete" c) cs

(* Every worker the engine has heard from, name-sorted: the live view's
   rows and the final summary's. *)
let wviews t ~now =
  Hashtbl.fold (fun _ w acc -> wview_of ~now w :: acc) t.wstats []
  |> List.sort (fun a b -> String.compare a.v_name b.v_name)

let summary t ~wall_s =
  let pool = Pool.summarize t.tally ~total:t.total ~skipped:t.skipped ~wall_s in
  let worker_spans =
    Hashtbl.fold
      (fun _ w acc ->
        match Trace_merge.events w.spans with [] -> acc | evs -> (w.name, evs) :: acc)
      t.wstats []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  {
    pool;
    workers = wviews t ~now:(Clock.now_ns t.clock);
    epoch = t.epoch;
    leases_granted = Lease.granted_total t.leases;
    leases_completed = Lease.completed_total t.leases;
    leases_expired = Lease.expired_total t.leases;
    worker_spans;
  }

(* ---- live inspection (feeds Status) ---- *)

type view = {
  vw_campaign : string;
  vw_protocol : string;
  vw_epoch : int;
  vw_restarts : int;
  vw_stale_completes : int;
  vw_running : bool;
  vw_total : int;
  vw_done : int;  (* journaled, including prior-run skips *)
  vw_skipped : int;
  vw_executed : int;
  vw_failures : int;
  vw_timeouts : int;
  vw_retried : int;
  vw_quarantined : int;
  vw_elapsed_s : float;
  vw_workers_connected : int;
  vw_hb_interval_s : float;
  vw_lease_timeout_s : float;
  vw_leases_outstanding : int;
  vw_leases_pending : int;
  vw_leases_granted : int;
  vw_leases_completed : int;
  vw_leases_expired : int;
  vw_workers : wview list;
}

let view t =
  let now = Clock.now_ns t.clock in
  {
    vw_campaign = t.spec.Spec.name;
    vw_protocol = t.spec.Spec.protocol;
    vw_epoch = t.epoch;
    vw_restarts = max 0 (t.epoch - 1);
    vw_stale_completes = t.stale_completes;
    vw_running = not (is_done t);
    vw_total = t.total;
    vw_done = Checkpoint.completed t.st;
    vw_skipped = t.skipped;
    vw_executed = t.tally.Pool.executed;
    vw_failures = t.tally.Pool.failures;
    vw_timeouts = t.tally.Pool.timeouts;
    vw_retried = t.tally.Pool.retried;
    vw_quarantined = t.tally.Pool.quarantined;
    vw_elapsed_s = float_of_int (now - t.created_ns) /. 1e9;
    vw_workers_connected = List.length (List.filter (fun c -> not c.c_dropped) t.clients);
    vw_hb_interval_s = t.hb_interval_s;
    vw_lease_timeout_s = t.lease_timeout_s;
    vw_leases_outstanding = Lease.outstanding t.leases;
    vw_leases_pending = Lease.pending t.leases;
    vw_leases_granted = Lease.granted_total t.leases;
    vw_leases_completed = Lease.completed_total t.leases;
    vw_leases_expired = Lease.expired_total t.leases;
    vw_workers = wviews t ~now;
  }
