(* The read-only observability surface as pure response building: a
   Core.view (plus an event tail and a metrics exposition) in, a typed
   response out. No sockets, no clocks, no globals — the HTTP driver
   and the netsim probes both call [respond], so the JSON the live
   endpoint serves is exactly the JSON the golden tests pin. *)

module Campaign = Ffault_campaign
module Json = Campaign.Json
module Pool = Campaign.Pool
module Events = Ffault_telemetry.Events

type source = {
  view : unit -> Core.view;
  events : limit:int -> Events.event list;
  metrics : unit -> string;
}

type response = { code : int; content_type : string; body : string }

let events_limit = 256

let json_response ?(code = 200) j =
  { code; content_type = "application/json"; body = Json.to_string j ^ "\n" }

(* Rate over the engine clock's elapsed time — the same arithmetic the
   final Pool summary uses, so the live number converges to the
   reported one. *)
let rate (v : Core.view) =
  Pool.trials_rate ~executed:v.Core.vw_executed ~wall_s:v.Core.vw_elapsed_s

let status_json (v : Core.view) =
  let trials_per_s = rate v in
  let remaining = v.Core.vw_total - v.Core.vw_done in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("campaign", Json.Str v.Core.vw_campaign);
      ("protocol", Json.Str v.Core.vw_protocol);
      ("epoch", Json.Int v.Core.vw_epoch);
      ("restarts", Json.Int v.Core.vw_restarts);
      ("stale_completes", Json.Int v.Core.vw_stale_completes);
      ("state", Json.Str (if v.Core.vw_running then "running" else "done"));
      ("total", Json.Int v.Core.vw_total);
      ("done", Json.Int v.Core.vw_done);
      ("skipped", Json.Int v.Core.vw_skipped);
      ("executed", Json.Int v.Core.vw_executed);
      ("failures", Json.Int v.Core.vw_failures);
      ("timeouts", Json.Int v.Core.vw_timeouts);
      ("retried", Json.Int v.Core.vw_retried);
      ("quarantined", Json.Int v.Core.vw_quarantined);
      ("elapsed_s", Json.Float v.Core.vw_elapsed_s);
      ("trials_per_s", Json.Float trials_per_s);
      ( "eta_s",
        if v.Core.vw_running && trials_per_s > 0.0 then
          Json.Float (float_of_int remaining /. trials_per_s)
        else Json.Null );
      ("workers_connected", Json.Int v.Core.vw_workers_connected);
      ( "leases",
        Json.Obj
          [
            ("outstanding", Json.Int v.Core.vw_leases_outstanding);
            ("pending", Json.Int v.Core.vw_leases_pending);
            ("granted", Json.Int v.Core.vw_leases_granted);
            ("completed", Json.Int v.Core.vw_leases_completed);
            ("expired", Json.Int v.Core.vw_leases_expired);
          ] );
    ]

let workers_json (v : Core.view) =
  (* stale is judged by heartbeat age alone, not connectedness: a
     SIGKILLed worker's socket EOFs promptly on localhost but can
     linger on a real network, and either way the operator wants the
     age-based verdict the coordinator's silence check will act on *)
  let stale_after = 2.0 *. v.Core.vw_hb_interval_s in
  let worker (w : Core.wview) =
    Json.Obj
      ([
         ("name", Json.Str w.Core.v_name);
         ("peer", Json.Str w.Core.v_peer);
         ("domains", Json.Int w.Core.v_domains);
         ("connected", Json.Bool w.Core.v_connected);
         ( "hb_age_s",
           match w.Core.v_hb_age_s with Some a -> Json.Float a | None -> Json.Null );
         ( "stale",
           Json.Bool
             (match w.Core.v_hb_age_s with
             | Some a -> a > stale_after
             | None -> false) );
         ("granted", Json.Int w.Core.v_granted);
         ("completed", Json.Int w.Core.v_completed);
         ("expired", Json.Int w.Core.v_expired);
         ("results", Json.Int w.Core.v_results);
         ("deduped", Json.Int w.Core.v_deduped);
         ("reconnects", Json.Int w.Core.v_reconnects);
       ]
      @
      match w.Core.v_telemetry with Some t -> [ ("telemetry", t) ] | None -> [])
  in
  Json.Obj
    [
      ("version", Json.Int 1);
      ("epoch", Json.Int v.Core.vw_epoch);
      ("restarts", Json.Int v.Core.vw_restarts);
      ("hb_interval_s", Json.Float v.Core.vw_hb_interval_s);
      ("lease_timeout_s", Json.Float v.Core.vw_lease_timeout_s);
      ("workers", Json.List (List.map worker v.Core.vw_workers));
    ]

let event_json (e : Events.event) =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("ts_ns", Json.Int e.ts_ns);
      ("severity", Json.Str (Events.severity_to_string e.severity));
      ("scope", Json.Str e.scope);
      ("msg", Json.Str e.message);
    ]

let not_found path =
  json_response ~code:404
    (Json.Obj
       [
         ("error", Json.Str (Printf.sprintf "no such endpoint: %s" path));
         ( "endpoints",
           Json.List
             (List.map (fun p -> Json.Str p) [ "/status"; "/workers"; "/metrics"; "/events" ])
         );
       ])

let respond src path =
  (* tolerate a query string: /events?x=y serves /events *)
  let path =
    match String.index_opt path '?' with
    | Some i -> String.sub path 0 i
    | None -> path
  in
  match path with
  | "/" | "/status" -> json_response (status_json (src.view ()))
  | "/workers" -> json_response (workers_json (src.view ()))
  | "/metrics" ->
      {
        code = 200;
        content_type = "text/plain; version=0.0.4";
        body = src.metrics ();
      }
  | "/events" ->
      json_response
        (Json.Obj
           [
             ("version", Json.Int 1);
             ("events", Json.List (List.map event_json (src.events ~limit:events_limit)));
           ])
  | p -> not_found p
