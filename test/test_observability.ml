(* Observability layer: Prometheus exposition golden, event-ring
   overflow accounting, Heartbeat codec compatibility (a bare beat must
   stay byte-identical to the pre-observability wire), and the netsim
   status probes — the /status and /workers JSON the live endpoint
   would serve, pinned byte-for-byte under virtual time. *)

module Metrics = Ffault_telemetry.Metrics
module Events = Ffault_telemetry.Events
module Tracer = Ffault_telemetry.Tracer
module Dist = Ffault_dist
module Codec = Dist.Codec
module Wire = Dist.Wire
module Json = Ffault_campaign.Json
module Sim = Ffault_netsim.Sim

let check = Alcotest.check

(* ---- Metrics.expose ---- *)

(* A handcrafted snapshot pins the whole exposition: name mangling,
   one TYPE line per metric, cumulative buckets, the max_int bucket
   folded into +Inf. *)
let test_expose_golden () =
  let snap =
    {
      Metrics.counters = [ ("campaign.trials", 42); ("dist.leases granted", 7) ];
      gauges = [ ("pool.inflight", 3) ];
      histograms =
        [
          {
            Metrics.h_name = "trial.wall_us";
            h_count = 4;
            h_sum = 75;
            h_buckets = [ (10, 1); (25, 2); (max_int, 1) ];
          };
        ];
    }
  in
  let expected =
    "# TYPE ffault_campaign_trials counter\n\
     ffault_campaign_trials 42\n\
     # TYPE ffault_dist_leases_granted counter\n\
     ffault_dist_leases_granted 7\n\
     # TYPE ffault_pool_inflight gauge\n\
     ffault_pool_inflight 3\n\
     # TYPE ffault_trial_wall_us histogram\n\
     ffault_trial_wall_us_bucket{le=\"10\"} 1\n\
     ffault_trial_wall_us_bucket{le=\"25\"} 3\n\
     ffault_trial_wall_us_bucket{le=\"+Inf\"} 4\n\
     ffault_trial_wall_us_sum 75\n\
     ffault_trial_wall_us_count 4\n"
  in
  check Alcotest.string "exposition" expected (Metrics.expose ~snapshot:snap ())

let test_expose_live_parses () =
  (* the live snapshot's exposition: every line is a comment or
     "name value" with a mangled ffault_ name *)
  let text = Metrics.expose () in
  String.split_on_char '\n' text
  |> List.iter (fun line ->
         if line <> "" && not (String.length line >= 1 && line.[0] = '#') then
           match String.index_opt line ' ' with
           | None -> Alcotest.failf "unparseable sample line: %s" line
           | Some i ->
               let name = String.sub line 0 i in
               check Alcotest.bool
                 (Fmt.str "prefix of %s" name)
                 true
                 (String.length name > 7 && String.sub name 0 7 = "ffault_"))

(* ---- Events ring ---- *)

let test_events_overflow () =
  let clock = ref 0 in
  let log = Events.create ~capacity:4 ~now:(fun () -> incr clock; !clock) () in
  for i = 0 to 9 do
    Events.emit log ~scope:"test" (Fmt.str "event %d" i)
  done;
  check Alcotest.int "emitted" 10 (Events.emitted log);
  check Alcotest.int "buffered" 4 (Events.buffered log);
  check Alcotest.int "dropped" 6 (Events.dropped log);
  let seqs = List.map (fun (e : Events.event) -> e.Events.seq) (Events.tail log) in
  check (Alcotest.list Alcotest.int) "survivors are the newest" [ 6; 7; 8; 9 ] seqs;
  let seqs =
    List.map (fun (e : Events.event) -> e.Events.seq) (Events.tail ~limit:2 log)
  in
  check (Alcotest.list Alcotest.int) "limited tail" [ 8; 9 ] seqs;
  Events.clear log;
  check Alcotest.int "cleared buffered" 0 (Events.buffered log);
  check Alcotest.int "cleared dropped" 0 (Events.dropped log)

(* One renderer writes an event's events.jsonl line and its /events
   entry: quotes, backslashes and control bytes escaped, UTF-8 as is. *)
let test_events_json_line () =
  let log = Events.create ~now:(fun () -> 1234) () in
  Events.emit log ~severity:Events.Warn ~scope:"di\"st" "lease \\ \"7\"\texpired\n\x01 \xc3\xa9";
  match Events.tail log with
  | [ e ] ->
      let line = Json.to_string (Dist.Status.event_json e) in
      check Alcotest.string "jsonl"
        "{\"seq\":0,\"ts_ns\":1234,\"severity\":\"warn\",\"scope\":\"di\\\"st\",\"msg\":\"lease \
         \\\\ \\\"7\\\"\\texpired\\n\\u0001 \xc3\xa9\"}"
        line;
      (* the line reads back as the event's own text *)
      (match Json.of_string line with
      | Ok j ->
          check Alcotest.(option string) "msg" (Some e.Events.message)
            (Option.bind (Json.member "msg" j) Json.get_str)
      | Error m -> Alcotest.failf "event line not Json: %s" m)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

let test_events_sink () =
  let lines = ref [] in
  let log = Events.create ~now:(fun () -> 0) () in
  Events.set_sink log (Some (fun l -> lines := l :: !lines));
  Events.emit log ~scope:"a" "one";
  Events.set_sink log None;
  Events.emit log ~scope:"a" "two";
  check Alcotest.int "sink saw one line" 1 (List.length !lines);
  check Alcotest.int "both buffered" 2 (Events.buffered log)

(* ---- Heartbeat codec compatibility ---- *)

let test_heartbeat_wire_compat () =
  (* a bare beat must encode exactly as the pre-observability wire:
     tag 'b', payload "{}" *)
  let frame = Codec.to_frame Codec.heartbeat in
  check Alcotest.char "tag" 'b' frame.Wire.tag;
  check Alcotest.string "legacy payload" "{}" frame.Wire.payload;
  (* and a legacy "{}" frame decodes to the bare beat *)
  (match Codec.of_frame { Wire.tag = 'b'; payload = "{}" } with
  | Ok m -> check Alcotest.bool "decodes bare" true (m = Codec.heartbeat)
  | Error e -> Alcotest.failf "legacy heartbeat: %s" e);
  (* a loaded beat carries its spans as Chrome span objects, ts in µs,
     and round-trips with both payloads intact *)
  let span ph ts_ns = { Tracer.ph; name = "trial"; cat = "pool"; ts_ns; tid = 2 } in
  let loaded =
    Codec.Heartbeat
      {
        snapshot = Some (Json.Obj [ ("counters", Json.Obj [ ("x", Json.Int 3) ]) ]);
        spans = [ span 'B' 1_500_000; span 'E' 2_250_500 ];
      }
  in
  check Alcotest.string "loaded payload"
    "{\"snapshot\":{\"counters\":{\"x\":3}},\"spans\":[{\"name\":\"trial\",\"cat\":\"pool\",\"ph\":\"B\",\"ts\":1500.0,\"tid\":2},{\"name\":\"trial\",\"cat\":\"pool\",\"ph\":\"E\",\"ts\":2250.5,\"tid\":2}]}"
    (Codec.to_frame loaded).Wire.payload;
  match Codec.of_frame (Codec.to_frame loaded) with
  | Ok m -> check Alcotest.bool "round-trips" true (m = loaded)
  | Error e -> Alcotest.failf "loaded heartbeat: %s" e

(* A span entry the decoder cannot read (no tid, a metadata phase, a
   string ts, not an object) is dropped from the beat, not a decode
   error: the beat's liveness and snapshot still count. *)
let test_heartbeat_drops_malformed_spans () =
  let beat spans = { Wire.tag = 'b'; payload = "{\"spans\":" ^ spans ^ "}" } in
  let spans_of spans =
    match Codec.of_frame (beat spans) with
    | Ok (Codec.Heartbeat { spans; _ }) -> spans
    | Ok m -> Alcotest.failf "decoded as %a" Codec.pp m
    | Error e -> Alcotest.failf "malformed span failed the frame: %s" e
  in
  check Alcotest.bool "the readable span is kept" true
    (spans_of
       "[{\"name\":\"ok\",\"cat\":\"c\",\"ph\":\"i\",\"ts\":1.5,\"tid\":0},{\"name\":\"no \
        tid\",\"ph\":\"B\",\"ts\":2},{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"tid\":0},7,{\"name\":\"bad \
        ts\",\"ph\":\"E\",\"ts\":\"x\",\"tid\":0}]"
    = [ { Tracer.ph = 'i'; name = "ok"; cat = "c"; ts_ns = 1500; tid = 0 } ]);
  check Alcotest.int "a spans field that is no list reads as none" 0
    (List.length (spans_of "7"))

(* ---- netsim status probes ---- *)

(* 192 trials across 2 workers: slow enough that the 1 s probe catches
   the campaign mid-flight (state "running", live ETA) and the
   completion probe sees it done. Everything below is a pure function
   of (config, seed). *)
let probe_cfg = Sim.config ~workers:2 ~trials:192 ~lease_trials:16 ()
let probe_seed = 0x0B5L

let probes () = (Sim.run probe_cfg ~seed:probe_seed).Sim.status_probes

let find path phase ps =
  (* phase 0 = the 1 s probe, phase 1 = the completion probe *)
  match List.filter (fun (_, p, _) -> p = path) ps with
  | [ (_, _, a); (_, _, b) ] -> if phase = 0 then a else b
  | l -> Alcotest.failf "expected 2 %s probes, got %d" path (List.length l)

let test_probes_deterministic () =
  let a = probes () and b = probes () in
  check Alcotest.int "same probe count" (List.length a) (List.length b);
  List.iter2
    (fun (ns, path, body) (ns', path', body') ->
      check Alcotest.int (path ^ " ns") ns ns';
      check Alcotest.string "path" path path';
      check Alcotest.string (path ^ " body") body body')
    a b

let test_status_golden () =
  let ps = probes () in
  check Alcotest.string "/status mid-run"
    "{\"version\":1,\"campaign\":\"netsim\",\"protocol\":\"fig1\",\"epoch\":1,\"restarts\":0,\"stale_completes\":0,\"state\":\"running\",\"total\":192,\"done\":125,\"skipped\":0,\"executed\":125,\"failures\":0,\"timeouts\":0,\"retried\":0,\"quarantined\":0,\"elapsed_s\":1.0,\"trials_per_s\":125.0,\"eta_s\":0.53600000000000003,\"workers_connected\":2,\"leases\":{\"outstanding\":2,\"pending\":9,\"granted\":9,\"completed\":1,\"expired\":0}}\n"
    (find "/status" 0 ps);
  check Alcotest.string "/status done"
    "{\"version\":1,\"campaign\":\"netsim\",\"protocol\":\"fig1\",\"epoch\":1,\"restarts\":0,\"stale_completes\":0,\"state\":\"done\",\"total\":192,\"done\":192,\"skipped\":0,\"executed\":192,\"failures\":0,\"timeouts\":0,\"retried\":0,\"quarantined\":0,\"elapsed_s\":2.5,\"trials_per_s\":76.799999999999997,\"eta_s\":null,\"workers_connected\":0,\"leases\":{\"outstanding\":0,\"pending\":0,\"granted\":23,\"completed\":12,\"expired\":0}}\n"
    (find "/status" 1 ps)

let test_workers_golden () =
  let ps = probes () in
  check Alcotest.string "/workers mid-run"
    "{\"version\":1,\"epoch\":1,\"restarts\":0,\"hb_interval_s\":0.5,\"lease_timeout_s\":2.0,\"workers\":[{\"name\":\"w0\",\"peer\":\"sim://w0\",\"domains\":1,\"connected\":true,\"hb_age_s\":0.109446217,\"stale\":false,\"granted\":4,\"completed\":1,\"expired\":2,\"results\":51,\"deduped\":1,\"reconnects\":0,\"telemetry\":{\"counters\":{\"netsim.results_sent\":48}}},{\"name\":\"w1\",\"peer\":\"sim://w1\",\"domains\":1,\"connected\":true,\"hb_age_s\":0.084046708999999997,\"stale\":false,\"granted\":5,\"completed\":0,\"expired\":4,\"results\":74,\"deduped\":1,\"reconnects\":0,\"telemetry\":{\"counters\":{\"netsim.results_sent\":64}}}]}\n"
    (find "/workers" 0 ps)

let test_events_probe_wellformed () =
  let ps = probes () in
  List.iter
    (fun phase ->
      match Json.of_string (String.trim (find "/events" phase ps)) with
      | Error m -> Alcotest.failf "/events not Json: %s" m
      | Ok j -> (
          check Alcotest.int "version" 1
            (Option.get (Json.get_int (Option.get (Json.member "version" j))));
          match Json.member "events" j with
          | Some (Json.List evs) ->
              check Alcotest.bool "has events" true (List.length evs > 0);
              (* both workers join before anything else happens *)
              let msg e = Option.get (Json.get_str (Option.get (Json.member "msg" e))) in
              check Alcotest.bool "w0 joined first" true
                (String.length (msg (List.hd evs)) > 0)
          | _ -> Alcotest.fail "no events array"))
    [ 0; 1 ]

let suites =
  [
    ( "observability",
      [
        Alcotest.test_case "expose golden" `Quick test_expose_golden;
        Alcotest.test_case "expose live parses" `Quick test_expose_live_parses;
        Alcotest.test_case "events ring overflow" `Quick test_events_overflow;
        Alcotest.test_case "events json line" `Quick test_events_json_line;
        Alcotest.test_case "events sink" `Quick test_events_sink;
        Alcotest.test_case "heartbeat wire compat" `Quick test_heartbeat_wire_compat;
        Alcotest.test_case "heartbeat drops malformed spans" `Quick
          test_heartbeat_drops_malformed_spans;
        Alcotest.test_case "probes deterministic" `Quick test_probes_deterministic;
        Alcotest.test_case "/status golden" `Quick test_status_golden;
        Alcotest.test_case "/workers golden" `Quick test_workers_golden;
        Alcotest.test_case "/events well-formed" `Quick test_events_probe_wellformed;
      ] );
  ]
