(* Telemetry: sharded metrics, span tracing through the Chrome-trace
   writer, and the live progress reporter. Metrics are process-global,
   so every test that counts starts from Metrics.reset — the alcotest
   runner is single-threaded, which makes that safe. *)

module Metrics = Ffault_telemetry.Metrics
module Tracer = Ffault_telemetry.Tracer
module Progress = Ffault_telemetry.Progress
module Runner = Ffault_runtime.Runner
module Json = Ffault_campaign.Json
module Trace_merge = Ffault_campaign.Trace_merge
module Pool = Ffault_campaign.Pool

(* ---- metrics ---- *)

let test_counter_sequential () =
  Metrics.reset ();
  let c = Metrics.counter "test.seq" in
  for _ = 1 to 1000 do
    Metrics.incr c
  done;
  Metrics.add c 500;
  Alcotest.(check (option int))
    "sequential total" (Some 1500)
    (Metrics.find_counter (Metrics.snapshot ()) "test.seq")

let test_counter_parallel_merge () =
  (* The acceptance property of sharding: concurrent increments from
     several domains merge to exactly the sequential total. *)
  Metrics.reset ();
  let c = Metrics.counter "test.par" in
  let domains = 4 and per_domain = 25_000 in
  ignore
    (Runner.run_parallel ~domains (fun _ ->
         for _ = 1 to per_domain do
           Metrics.incr c
         done));
  Alcotest.(check (option int))
    "parallel total equals sequential" (Some (domains * per_domain))
    (Metrics.find_counter (Metrics.snapshot ()) "test.par")

let test_counter_find_or_create () =
  Metrics.reset ();
  let a = Metrics.counter "test.same" in
  let b = Metrics.counter "test.same" in
  Metrics.incr a;
  Metrics.incr b;
  Alcotest.(check (option int))
    "same name, same counter" (Some 2)
    (Metrics.find_counter (Metrics.snapshot ()) "test.same")

let test_gauge () =
  Metrics.reset ();
  let g = Metrics.gauge "test.gauge" in
  Metrics.set_gauge g 7;
  Metrics.add_gauge g 3;
  Metrics.add_gauge g (-2);
  let s = Metrics.snapshot () in
  Alcotest.(check (option int)) "gauge level" (Some 8) (List.assoc_opt "test.gauge" s.Metrics.gauges)

let test_histogram_buckets () =
  (* bucket 0 admits <= 0; bucket i >= 1 admits [2^(i-1), 2^i - 1]. *)
  Alcotest.(check int) "bucket of 0" 0 (Metrics.bucket_of 0);
  Alcotest.(check int) "bucket of -5" 0 (Metrics.bucket_of (-5));
  Alcotest.(check int) "bucket of 1" 1 (Metrics.bucket_of 1);
  Alcotest.(check int) "bucket of 2" 2 (Metrics.bucket_of 2);
  Alcotest.(check int) "bucket of 3" 2 (Metrics.bucket_of 3);
  Alcotest.(check int) "bucket of 4" 3 (Metrics.bucket_of 4);
  Alcotest.(check int) "bucket of 1023" 10 (Metrics.bucket_of 1023);
  Alcotest.(check int) "bucket of 1024" 11 (Metrics.bucket_of 1024);
  (* every value lands in the bucket whose bounds admit it *)
  List.iter
    (fun v ->
      let i = Metrics.bucket_of v in
      let ub = Metrics.bucket_upper_bound i in
      Alcotest.(check bool) (Printf.sprintf "%d <= ub(%d)" v i) true (v <= ub);
      if i > 1 then
        Alcotest.(check bool)
          (Printf.sprintf "%d > ub(%d)" v (i - 1))
          true
          (v > Metrics.bucket_upper_bound (i - 1)))
    [ 1; 2; 3; 7; 8; 100; 4095; 4096; 1_000_000; max_int ]

let test_histogram_observe () =
  Metrics.reset ();
  let h = Metrics.histogram "test.hist" in
  List.iter (Metrics.observe h) [ 1; 1; 3; 100; 0 ];
  match Metrics.find_histogram (Metrics.snapshot ()) "test.hist" with
  | None -> Alcotest.fail "histogram missing from snapshot"
  | Some v ->
      Alcotest.(check int) "count" 5 v.Metrics.h_count;
      Alcotest.(check int) "sum" 105 v.Metrics.h_sum;
      let total_bucketed = List.fold_left (fun acc (_, c) -> acc + c) 0 v.Metrics.h_buckets in
      Alcotest.(check int) "buckets account for every sample" 5 total_bucketed;
      Alcotest.(check bool)
        "bucket bounds ascend" true
        (let ubs = List.map fst v.Metrics.h_buckets in
         List.sort compare ubs = ubs)

(* ---- tracer and the trace writer ---- *)

(* The bytes of the file the one writer makes of [rows]. *)
let file_of rows =
  let path = Filename.temp_file "ffault_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_merge.write path rows;
      In_channel.with_open_text path In_channel.input_all)

let parse text =
  match Json.of_string text with
  | Error e -> Alcotest.fail ("trace is not valid JSON: " ^ e)
  | Ok j -> j

(* [rows] through the one writer, read back: every event of the file. *)
let written rows =
  match Json.member "traceEvents" (parse (file_of rows)) with
  | Some (Json.List events) -> events
  | _ -> Alcotest.fail "traceEvents missing or not a list"

let str k e = match Json.member k e with Some (Json.Str s) -> s | _ -> "?"
let int k e = Option.value ~default:(-1) (Option.bind (Json.member k e) Json.get_int)

(* B/E balance per (pid, tid), in file order, and one process_name row
   per input row. *)
let check_balanced what ~rows events =
  Alcotest.(check int)
    (what ^ ": one process_name per row")
    rows
    (List.length (List.filter (fun e -> str "name" e = "process_name") events));
  let depth = Hashtbl.create 4 in
  List.iter
    (fun e ->
      let track = (int "pid" e, int "tid" e) in
      let d = Option.value ~default:0 (Hashtbl.find_opt depth track) in
      match str "ph" e with
      | "B" -> Hashtbl.replace depth track (d + 1)
      | "E" ->
          Alcotest.(check bool) (what ^ ": E never precedes its B") true (d > 0);
          Hashtbl.replace depth track (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun (pid, tid) d ->
      Alcotest.(check int) (Printf.sprintf "%s: pid %d tid %d balanced" what pid tid) 0 d)
    depth

let test_trace_export_valid_json () =
  Tracer.enable ();
  Tracer.with_span ~cat:"test" "outer" (fun () ->
      Tracer.with_span ~cat:"test" "inner" (fun () -> ());
      Tracer.instant ~cat:"test" "mark \"quoted\"");
  let events = written [ ("campaign", Tracer.drain ()) ] in
  Tracer.disable ();
  Alcotest.(check int) "process_name + 2 spans + 1 instant = 6 events" 6 (List.length events);
  check_balanced "campaign" ~rows:1 events

let test_trace_disabled_is_noop () =
  Tracer.disable ();
  let before = Tracer.event_count () in
  Tracer.begin_span "ignored";
  Tracer.end_span "ignored";
  Alcotest.(check int) "no events recorded while disabled" before (Tracer.event_count ())

let test_trace_ring_overflow_repaired () =
  (* A tiny ring forces overwrites; the written trace must still parse
     and stay B/E-balanced (orphans repaired by the writer). *)
  Tracer.enable ~capacity:8 ();
  for i = 1 to 100 do
    Tracer.with_span (Printf.sprintf "span%d" i) (fun () -> ())
  done;
  let events = Tracer.drain () in
  Alcotest.(check bool) "overflow dropped events" true (Tracer.dropped_count () > 0);
  Tracer.disable ();
  check_balanced "overflowed" ~rows:1 (written [ ("campaign", events) ])

(* Span [a] around ten [b] spans in a capacity-8 ring: the ring keeps
   the last 8 events, the close of b7 and of a among them, so the raw
   events read 3 B and 5 E. Each way the CLI writes a trace must come
   out balanced: a campaign run's one row, a worker's own file (its
   heartbeat batches, the first drained before the overflow), and a
   serve file with a coordinator row beside a worker row. *)
let test_trace_overflow_balanced_everywhere () =
  let b_spans lo hi =
    for i = lo to hi do
      Tracer.with_span (Printf.sprintf "b%d" i) (fun () -> ())
    done
  in
  let count ph evs = List.length (List.filter (fun (e : Tracer.event) -> e.ph = ph) evs) in
  Tracer.enable ~capacity:8 ();
  Tracer.begin_span "a";
  b_spans 1 10;
  Tracer.end_span "a";
  let run = Tracer.drain () in
  Alcotest.(check (pair int int)) "raw: 3 B, 5 E" (3, 5) (count 'B' run, count 'E' run);
  Tracer.begin_span "a";
  b_spans 1 3;
  let first_batch = Tracer.drain () in
  b_spans 4 10;
  Tracer.end_span "a";
  let second_batch = Tracer.drain () in
  Tracer.disable ();
  let worker = first_batch @ second_batch in
  check_balanced "campaign run" ~rows:1 (written [ ("campaign", run) ]);
  check_balanced "worker file" ~rows:1 (written [ ("w1", worker) ]);
  check_balanced "serve file" ~rows:2 (written [ ("coordinator", run); ("w1", worker) ]);
  (* batches that arrive swapped write the same file *)
  Alcotest.(check string)
    "swapped batches"
    (file_of [ ("w1", worker) ])
    (file_of [ ("w1", second_batch @ first_batch) ])

(* The writer's exact bytes for two rows given out of timestamp order.
   The first row holds an orphan E (dropped) and leaves a span open on
   tid 1 and one on tid 0; the second an orphan E, two nested spans open
   on tid 3 and one on tid 2. Each row ends with the E events that close
   its open spans at its last timestamp: tid by tid in ascending order,
   innermost first. *)
let test_trace_file_bytes () =
  let ev ph name tid ts_ns = { Tracer.ph; name; cat = "t"; ts_ns; tid } in
  let coordinator =
    [
      ev 'B' "b" 1 2_000; ev 'E' "x" 1 500; ev 'B' "a" 1 1_000; ev 'i' "m" 0 2_500;
      ev 'B' "c" 0 1_500; ev 'E' "b" 1 3_000;
    ]
  in
  let worker = [ ev 'E' "y" 3 10; ev 'B' "z" 3 20; ev 'B' "q" 2 25; ev 'B' "z2" 3 30_500 ] in
  let span name ph ts tid pid =
    Printf.sprintf "{\"name\":%S,\"cat\":\"t\",\"ph\":\"%s\",\"ts\":%s,\"tid\":%d,\"pid\":%d}"
      name ph ts tid pid
  in
  let process_name pid label =
    Printf.sprintf
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\"args\":{\"name\":%S}}" pid
      label
  in
  let expected =
    "{\"traceEvents\":["
    ^ String.concat ","
        [
          process_name 1 "coordinator";
          span "a" "B" "1.0" 1 1;
          span "c" "B" "1.5" 0 1;
          span "b" "B" "2.0" 1 1;
          span "m" "i" "2.5" 0 1;
          span "b" "E" "3.0" 1 1;
          span "c" "E" "3.0" 0 1;
          span "a" "E" "3.0" 1 1;
          process_name 2 "w1";
          span "z" "B" "0.02" 3 2;
          span "q" "B" "0.025000000000000001" 2 2;
          span "z2" "B" "30.5" 3 2;
          span "q" "E" "30.5" 2 2;
          span "z2" "E" "30.5" 3 2;
          span "z" "E" "30.5" 3 2;
        ]
    ^ "],\"displayTimeUnit\":\"ms\"}\n"
  in
  Alcotest.(check string) "file bytes" expected
    (file_of [ ("coordinator", coordinator); ("w1", worker) ])

(* [trace merge] reads a file back as one row and writes it again: a
   file the writer made, of real tracer stamps with an overflowed ring
   and spans left open, comes back byte for byte. *)
let test_trace_merge_gives_back_the_file () =
  Tracer.enable ~capacity:8 ();
  Tracer.begin_span ~cat:"test" "open";
  for i = 1 to 10 do
    Tracer.with_span ~cat:"test" (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  Tracer.begin_span ~cat:"test" "inner";
  Tracer.instant ~cat:"test" "mark \"quoted\"";
  let events = Tracer.drain () in
  Tracer.disable ();
  let file = file_of [ ("campaign", events) ] in
  Alcotest.(check string)
    "merged file" file
    (file_of [ ("campaign", Trace_merge.of_json (parse file)) ])

(* [enable] allocates no ring; a domain's first span allocates its ring
   of [default_capacity] slots, whose header is one more word, and a
   second span allocates none. The ring is too big for the minor heap,
   so [major_words] counts it when it is made. A full major collection
   first settles that counter, and whatever else runs in the process
   can only add words, so the least of three attempts is the tracer's
   own allocation. *)
let test_trace_ring_on_first_record () =
  let major () = (Gc.quick_stat ()).Gc.major_words in
  let attempt () =
    Gc.full_major ();
    let m0 = major () in
    Tracer.enable ();
    let m1 = major () in
    Tracer.with_span "first" (fun () -> ());
    let m2 = major () in
    Tracer.with_span "second" (fun () -> ());
    let m3 = major () in
    Tracer.disable ();
    ignore (Tracer.drain ());
    [ m1 -. m0; m2 -. m1; m3 -. m2 ]
  in
  let least =
    List.fold_left (List.map2 Float.min) [ infinity; infinity; infinity ]
      (List.init 3 (fun _ -> attempt ()))
  in
  let ring_words = float_of_int (Tracer.default_capacity + 1) in
  match least with
  | [ enable; first; second ] ->
      Alcotest.(check bool) "enable allocates less than one ring" true (enable < ring_words);
      Alcotest.(check (float 0.0)) "the first span allocates one ring" ring_words first;
      Alcotest.(check (float 0.0)) "the second span allocates no ring" 0.0 second
  | _ -> assert false

(* ---- progress ---- *)

let test_progress_non_ansi_no_escapes () =
  let path = Filename.temp_file "ffault_progress" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      let ticks = ref 0 in
      let p =
        Progress.start ~interval:0.01 ~ansi:false ~oc
          ~render:(fun () ->
            incr ticks;
            Printf.sprintf "tick %d" !ticks)
          ()
      in
      Unix.sleepf 0.05;
      Progress.stop p;
      Progress.stop p (* idempotent *);
      close_out oc;
      let content = In_channel.with_open_text path In_channel.input_all in
      Alcotest.(check bool) "no ESC byte in non-ANSI output" false (String.contains content '\x1b');
      Alcotest.(check bool)
        "exactly the final line" true
        (String.length content > 0 && content.[String.length content - 1] = '\n'
        && String.index content '\n' = String.length content - 1))

(* ---- pool rate guards (satellite: no inf/nan trials_per_s) ---- *)

let test_trials_rate_guards () =
  Alcotest.(check (float 0.0)) "zero wall" 0.0 (Pool.trials_rate ~executed:100 ~wall_s:0.0);
  Alcotest.(check (float 0.0)) "sub-resolution wall" 0.0 (Pool.trials_rate ~executed:100 ~wall_s:1e-9);
  Alcotest.(check (float 0.0)) "nan wall" 0.0 (Pool.trials_rate ~executed:100 ~wall_s:Float.nan);
  Alcotest.(check (float 0.0)) "nothing executed" 0.0 (Pool.trials_rate ~executed:0 ~wall_s:1.0);
  let r = Pool.trials_rate ~executed:100 ~wall_s:2.0 in
  Alcotest.(check (float 1e-9)) "normal rate" 50.0 r;
  Alcotest.(check bool)
    "rate is always finite" true
    (List.for_all
       (fun w -> Float.is_finite (Pool.trials_rate ~executed:max_int ~wall_s:w))
       [ 0.0; 1e-300; Float.nan; Float.infinity; 1.0 ])

let suites =
  [
    ( "telemetry.metrics",
      [
        Alcotest.test_case "counter sequential" `Quick test_counter_sequential;
        Alcotest.test_case "counter parallel merge" `Quick test_counter_parallel_merge;
        Alcotest.test_case "counter find-or-create" `Quick test_counter_find_or_create;
        Alcotest.test_case "gauge" `Quick test_gauge;
        Alcotest.test_case "histogram buckets" `Quick test_histogram_buckets;
        Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
      ] );
    ( "telemetry.tracer",
      [
        Alcotest.test_case "export is valid balanced JSON" `Quick test_trace_export_valid_json;
        Alcotest.test_case "disabled tracer records nothing" `Quick test_trace_disabled_is_noop;
        Alcotest.test_case "ring overflow repaired" `Quick test_trace_ring_overflow_repaired;
        Alcotest.test_case "overflow balanced on every write path" `Quick
          test_trace_overflow_balanced_everywhere;
        Alcotest.test_case "file bytes" `Quick test_trace_file_bytes;
        Alcotest.test_case "merge gives back the file" `Quick
          test_trace_merge_gives_back_the_file;
        Alcotest.test_case "ring allocated on first record" `Quick
          test_trace_ring_on_first_record;
      ] );
    ( "telemetry.progress",
      [ Alcotest.test_case "non-ANSI output has no escapes" `Quick test_progress_non_ansi_no_escapes ] );
    ( "telemetry.rates",
      [ Alcotest.test_case "trials_rate never inf/nan" `Quick test_trials_rate_guards ] );
  ]
