(* netsim: the deterministic scheduler, seed-derived fault plans, the
   simulated campaign (byte-identical journals, exactly-once under
   faults), wire conformance of the simulated transport against the
   real decoder, and the schedule search catching + shrinking a
   planted lease-retirement bug. *)

module Netsim = Ffault_netsim
module Sched = Netsim.Sched
module Fault_plan = Netsim.Fault_plan
module Net = Netsim.Net
module Sim = Netsim.Sim
module Search = Netsim.Search
module Wire = Ffault_dist.Wire
module Codec = Ffault_dist.Codec

(* ---- scheduler ---- *)

let test_sched_order () =
  let s = Sched.create () in
  let log = ref [] in
  let ev tag = fun () -> log := (tag, Sched.now_ns s) :: !log in
  Sched.at s ~ns:30 (ev "c");
  Sched.at s ~ns:10 (ev "a");
  Sched.at s ~ns:10 (ev "b");
  (* same-time ties execute in insertion order *)
  (match Sched.run s ~until_ns:100 with
  | `Drained -> ()
  | `Horizon -> Alcotest.fail "queue should drain");
  Alcotest.(check (list (pair string int)))
    "order and clock" [ ("a", 10); ("b", 10); ("c", 30) ] (List.rev !log);
  Alcotest.(check int) "executed" 3 (Sched.executed s)

let test_sched_nested () =
  (* an event scheduling at its own time runs this pass, after the
     already-queued ties (insertion order is global) *)
  let s = Sched.create () in
  let log = ref [] in
  Sched.at s ~ns:5 (fun () ->
      log := "outer" :: !log;
      Sched.at s ~ns:0 (fun () -> log := "nested" :: !log));
  ignore (Sched.run s ~until_ns:10);
  Alcotest.(check (list string)) "nested runs after" [ "outer"; "nested" ]
    (List.rev !log);
  Alcotest.(check int) "clamped to now" 5 (Sched.now_ns s)

let test_sched_horizon () =
  let s = Sched.create () in
  let fired = ref false in
  Sched.at s ~ns:500 (fun () -> fired := true);
  (match Sched.run s ~until_ns:100 with
  | `Horizon -> ()
  | `Drained -> Alcotest.fail "event past the horizon must not run");
  Alcotest.(check bool) "not fired" false !fired;
  Alcotest.(check int) "clock at horizon" 100 (Sched.now_ns s);
  Alcotest.(check int) "still pending" 1 (Sched.pending s);
  match Sched.run s ~until_ns:1_000 with
  | `Drained -> Alcotest.(check int) "then runs" 500 (Sched.now_ns s)
  | `Horizon -> Alcotest.fail "should drain"

let test_sched_negative_after () =
  let s = Sched.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Sched.after: negative delay") (fun () ->
      Sched.after s ~ns:(-1) ignore)

(* A random program of [at]/[after] calls, some made by running events,
   against a reference model: a list in insertion order, whose next
   event is the first of the earliest (clamped) time. Short times make
   ties common, absolute times fall before now once the clock has moved
   (clamped), and the run stops at two random horizons before draining. *)
type sched_op = { rel : bool; ns : int; kids : sched_op list }

let gen_sched_program =
  let open QCheck.Gen in
  let rec ops depth =
    if depth = 0 then return []
    else
      list_size (int_bound 3)
        (map3 (fun rel ns kids -> { rel; ns; kids }) bool (int_bound 12) (ops (depth - 1)))
  in
  let top = map3 (fun rel ns kids -> { rel; ns; kids }) bool (int_bound 30) (ops 2) in
  quad (int_bound 5) (list_size (int_range 1 12) top) (int_bound 60) (int_bound 60)

let sched_real ~start_ns prog horizons =
  let s = Sched.create ~start_ns () in
  let next = ref 0 and log = ref [] in
  let rec push op =
    let id = !next in
    incr next;
    let f () =
      log := (id, Sched.now_ns s) :: !log;
      List.iter push op.kids
    in
    if op.rel then Sched.after s ~ns:op.ns f else Sched.at s ~ns:op.ns f
  in
  List.iter push prog;
  let stops =
    List.map
      (fun until_ns ->
        let v = Sched.run s ~until_ns in
        (v, Sched.now_ns s, Sched.executed s, Sched.pending s))
      horizons
  in
  (List.rev !log, stops)

let sched_model ~start_ns prog horizons =
  let now = ref start_ns and next = ref 0 and executed = ref 0 in
  let queue = ref [] (* (time, id, kids), insertion order *) and log = ref [] in
  let push op =
    let time = if op.rel then !now + op.ns else max op.ns !now in
    queue := !queue @ [ (time, !next, op.kids) ];
    incr next
  in
  List.iter push prog;
  let rec run until =
    match List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b) !queue with
    | [] -> `Drained
    | (time, _, _) :: _ when time > until ->
        if until > !now then now := until;
        `Horizon
    | (time, id, kids) :: _ ->
        queue := List.filter (fun (_, id', _) -> id' <> id) !queue;
        now := time;
        incr executed;
        log := (id, time) :: !log;
        List.iter push kids;
        run until
  in
  let stops =
    List.map
      (fun until -> let v = run until in (v, !now, !executed, List.length !queue))
      horizons
  in
  (List.rev !log, stops)

let test_sched_matches_model =
  QCheck.Test.make ~name:"random programs run in the model's order" ~count:300
    (QCheck.make gen_sched_program)
    (fun (start_ns, prog, h1, h2) ->
      let horizons = [ h1; h2; 1_000_000 ] in
      sched_real ~start_ns prog horizons = sched_model ~start_ns prog horizons)

(* ---- fault plans ---- *)

let test_plan_deterministic () =
  let a = Fault_plan.generate ~seed:0xBEEFL ~workers:3 in
  let b = Fault_plan.generate ~seed:0xBEEFL ~workers:3 in
  Alcotest.(check bool) "partitions equal" true
    (Fault_plan.partitions a = Fault_plan.partitions b);
  Alcotest.(check bool) "crashes equal" true
    (Fault_plan.crashes a = Fault_plan.crashes b);
  for link = 0 to 5 do
    Alcotest.(check bool)
      (Printf.sprintf "latency of link %d" link)
      true
      (Fault_plan.latency_ns a ~link = Fault_plan.latency_ns b ~link);
    for k = 0 to 50 do
      Alcotest.(check bool)
        (Printf.sprintf "fate of %d/%d" link k)
        true
        (Fault_plan.frame_fault a ~link ~k = Fault_plan.frame_fault b ~link ~k)
    done
  done

let test_plan_replay () =
  let a = Fault_plan.generate ~seed:0xF00DL ~workers:2 in
  (* touch a range of frames so some atoms fire *)
  for link = 0 to 3 do
    for k = 0 to 80 do
      ignore (Fault_plan.frame_fault a ~link ~k)
    done
  done;
  let fired = Fault_plan.fired a in
  Alcotest.(check bool) "schedule fires something" true (fired <> []);
  (* full replay reproduces every decision; empty replay silences all *)
  let full =
    Fault_plan.replay (Fault_plan.generate ~seed:0xF00DL ~workers:2) ~atoms:fired
  in
  let none =
    Fault_plan.replay (Fault_plan.generate ~seed:0xF00DL ~workers:2) ~atoms:[]
  in
  Alcotest.(check bool) "no partitions when disabled" true
    (Fault_plan.partitions none = [] && Fault_plan.crashes none = []);
  for link = 0 to 3 do
    for k = 0 to 80 do
      Alcotest.(check bool)
        (Printf.sprintf "replay fate of %d/%d" link k)
        true
        (Fault_plan.frame_fault full ~link ~k = Fault_plan.frame_fault a ~link ~k);
      Alcotest.(check bool)
        (Printf.sprintf "silenced fate of %d/%d" link k)
        true
        (Fault_plan.frame_fault none ~link ~k = None)
    done
  done

(* ---- wire conformance: simulated transport vs the real decoder ---- *)

(* A fault-free net (empty replay) delivers bytes in order; whatever
   byte soup [send_raw] puts on the wire must decode to exactly the
   frames and error the real socket path's decoder yields on the same
   stream. *)
let conformance_run chunks =
  let sched = Sched.create () in
  let plan =
    Fault_plan.replay (Fault_plan.generate ~seed:0x5EAL ~workers:1) ~atoms:[]
  in
  let net = Net.create ~sched ~plan ~workers:1 () in
  let got_frames = ref [] in
  let got_error = ref None in
  Net.set_listener net
    (Some
       (fun conn ->
         Net.set_handler conn
           {
             Net.h_frames =
               (fun fs -> got_frames := List.rev_append fs !got_frames);
             h_closed = ignore;
             h_error = (fun e -> if !got_error = None then got_error := Some e);
           }));
  let wside =
    match Net.connect net ~worker:0 with
    | Ok c -> c
    | Error e -> Alcotest.failf "connect: %s" e
  in
  List.iter (fun chunk -> Net.send_raw wside chunk) chunks;
  (match Sched.run sched ~until_ns:10_000_000_000 with
  | `Drained -> ()
  | `Horizon -> Alcotest.fail "conformance net should drain");
  (List.rev !got_frames, !got_error)

let reference_decode chunks =
  let dec = Wire.Decoder.create () in
  let frames = ref [] in
  let error = ref None in
  List.iter
    (fun chunk ->
      if !error = None then begin
        Wire.Decoder.feed dec chunk;
        let rec drain () =
          match Wire.Decoder.next dec with
          | Ok (Some f) ->
              frames := f :: !frames;
              drain ()
          | Ok None -> ()
          | Error e -> if !error = None then error := Some e
        in
        drain ()
      end)
    chunks;
  (List.rev !frames, !error)

let check_conformance name chunks =
  let sim_frames, sim_err = conformance_run chunks in
  let ref_frames, ref_err = reference_decode chunks in
  Alcotest.(check int)
    (name ^ ": frame count")
    (List.length ref_frames) (List.length sim_frames);
  List.iter2
    (fun (a : Wire.frame) (b : Wire.frame) ->
      Alcotest.(check char) (name ^ ": tag") a.Wire.tag b.Wire.tag;
      Alcotest.(check string) (name ^ ": payload") a.Wire.payload b.Wire.payload)
    ref_frames sim_frames;
  Alcotest.(check (option string)) (name ^ ": error") ref_err sim_err

let test_conformance_corpus () =
  let be32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 v;
    Bytes.to_string b
  in
  let hello =
    Wire.encode
      (Codec.to_frame
         (Codec.Hello { version = Wire.version; name = "w"; domains = 1; last_epoch = 0 }))
  in
  let hb = Wire.encode (Codec.to_frame Codec.heartbeat) in
  check_conformance "two clean frames" [ hello; hb ];
  check_conformance "split mid-frame"
    [ String.sub hello 0 3; String.sub hello 3 (String.length hello - 3) ];
  check_conformance "truncated tail" [ hb; String.sub hello 0 5 ];
  check_conformance "zero length" [ be32 0l; hb ];
  check_conformance "oversized length"
    [ be32 (Int32.of_int (Wire.max_frame_bytes + 1)); hb ];
  check_conformance "negative length" [ be32 0x80000001l ];
  (* deterministic garbage, several chunkings *)
  let state = ref 0x2545F4914F6CDD1D in
  let next_byte () =
    state := (!state * 25214903917) + 11;
    Char.chr (!state lsr 33 land 0xFF)
  in
  for round = 1 to 10 do
    let chunks =
      List.init 20 (fun _ ->
          String.init (1 + (Char.code (next_byte ()) mod 40)) (fun _ -> next_byte ()))
    in
    check_conformance (Printf.sprintf "garbage round %d" round) chunks
  done

(* ---- simulation determinism and the exactly-once invariant ---- *)

let quick_config ?(verify_complete = true) ?(fence_epochs = true) () =
  Sim.config ~workers:3 ~trials:96 ~lease_trials:16 ~verify_complete ~fence_epochs ()

let test_sim_deterministic () =
  let cfg = quick_config () in
  let a = Sim.run cfg ~seed:0xCAFE1L in
  let b = Sim.run cfg ~seed:0xCAFE1L in
  Alcotest.(check bool) "violation-free" true (a.Sim.violation = None);
  Alcotest.(check string) "byte-identical journal" (Sim.journal_bytes a)
    (Sim.journal_bytes b);
  Alcotest.(check (list string)) "identical trace" a.Sim.trace b.Sim.trace;
  Alcotest.(check int) "same event count" a.Sim.events b.Sim.events;
  Alcotest.(check int) "same end time" a.Sim.end_ns b.Sim.end_ns;
  Alcotest.(check bool) "fired atoms equal" true (a.Sim.fired = b.Sim.fired);
  (* replaying the full fired set is the same run *)
  let c = Sim.run ~atoms:a.Sim.fired cfg ~seed:0xCAFE1L in
  Alcotest.(check string) "replay(full fired) journal" (Sim.journal_bytes a)
    (Sim.journal_bytes c);
  Alcotest.(check (list string)) "replay(full fired) trace" a.Sim.trace c.Sim.trace

let test_sim_exactly_once_sweep () =
  (* a small always-on sweep; `make netsim-smoke` runs the larger one *)
  let sweep =
    Search.explore ~config:(quick_config ()) ~root:0x5EEDL ~schedules:15 ()
  in
  Alcotest.(check int) "all explored" 15 sweep.Search.explored;
  (match sweep.Search.violations with
  | [] -> ()
  | v :: _ ->
      Alcotest.failf "schedule %d (seed %Ld) violated exactly-once: %s"
        v.Search.s_index v.Search.s_seed
        (Sim.violation_to_string v.Search.s_violation));
  Alcotest.(check bool) "simulated work happened" true
    (sweep.Search.total_events > 1000)

let test_mutation_caught_and_shrunk () =
  (* plant the lease-retirement bug: Complete retires its lease without
     the journal check. The search must find a violating schedule and
     ddmin it to a handful of atoms that still reproduce. *)
  let cfg = quick_config ~verify_complete:false () in
  let sweep = Search.explore ~config:cfg ~root:7L ~schedules:40 () in
  match sweep.Search.violations with
  | [] -> Alcotest.fail "planted bug not caught within 40 schedules"
  | v :: _ ->
      Alcotest.(check bool) "shrunk to a non-empty schedule" true
        (v.Search.s_shrunk <> []);
      Alcotest.(check bool) "shrunk below the fired set" true
        (List.length v.Search.s_shrunk < v.Search.s_fired);
      Alcotest.(check bool) "minimal: a few atoms" true
        (List.length v.Search.s_shrunk <= 4);
      (* the reported reproducer reproduces *)
      let r = Sim.run ~atoms:v.Search.s_shrunk cfg ~seed:v.Search.s_seed in
      Alcotest.(check bool) "minimal schedule still violates" true
        (r.Sim.violation <> None);
      (* and the very same atoms are benign without the bug *)
      let ok =
        Sim.run ~atoms:v.Search.s_shrunk (quick_config ()) ~seed:v.Search.s_seed
      in
      Alcotest.(check bool) "correct engine survives the same faults" true
        (ok.Sim.violation = None)

let test_fencing_bug_caught_and_shrunk () =
  (* Plant the fencing bug: a Complete carrying a stale incarnation's
     grant epoch is trusted, retiring whatever live lease reuses the
     id. The hand-written window schedule drives the exact interleaving
     that exposes it: the coordinator dies in the gap between round-1
     results landing and round-2 grants, so every worker is left
     holding a round-1 lease id (0, 1, 2) when epoch 2 starts reissuing
     ids from 0; on reconnect, w2 is re-granted its range as epoch-2
     lease #0 and then killed, and w0's resent [Complete] for epoch-1
     lease #0 retires that live lease unverified — the dead worker's
     shard is marked done with its trials unjournaled, and the campaign
     stalls at the horizon. *)
  let seed = 0xFE2CE5L in
  let atoms =
    [
      Fault_plan.CoordCrash { at_ns = 39_500_000; restart_ns = 500_000_000 };
      Fault_plan.Crash
        { worker = 2; at_ns = 1_074_000_000; restart_ns = 6_074_000_000 };
    ]
  in
  let buggy = quick_config ~fence_epochs:false () in
  let r = Sim.run ~atoms buggy ~seed in
  let violation =
    match r.Sim.violation with
    | Some v -> v
    | None -> Alcotest.fail "planted fencing bug not caught"
  in
  (* ddmin the schedule back down: the reproducer is tiny *)
  let shrunk, _, _ = Search.shrink ~config:buggy ~seed ~atoms ~violation in
  Alcotest.(check bool) "minimal: a few atoms" true (List.length shrunk <= 4);
  let again = Sim.run ~atoms:shrunk buggy ~seed in
  Alcotest.(check bool) "minimal schedule still violates" true
    (again.Sim.violation <> None);
  (* with fencing on, the same crashes are survived: the stale Complete
     is fenced, the dead worker's lease expires and requeues *)
  let ok = Sim.run ~atoms:shrunk (quick_config ()) ~seed in
  Alcotest.(check bool) "fencing engine survives the same faults" true
    (ok.Sim.violation = None)

(* An untraced run formats no trace line and changes nothing else: the
   sweep's schedules, both planted bugs' catches, and a replay. *)
let check_untraced what ?atoms cfg ~seed =
  let a = Sim.run ?atoms cfg ~seed in
  let b = Sim.run ?atoms ~trace:false cfg ~seed in
  let violation r = Option.map Sim.violation_to_string r.Sim.violation in
  let lines r = List.map Ffault_campaign.Journal.to_line r.Sim.records in
  Alcotest.(check bool) (what ^ ": traced has a trace") true (a.Sim.trace <> []);
  Alcotest.(check (list string)) (what ^ ": untraced has none") [] b.Sim.trace;
  Alcotest.(check (option string)) (what ^ ": violation") (violation a) (violation b);
  Alcotest.(check (list string))
    (what ^ ": fired")
    (List.map Fault_plan.atom_to_string a.Sim.fired)
    (List.map Fault_plan.atom_to_string b.Sim.fired);
  Alcotest.(check (list string)) (what ^ ": records") (lines a) (lines b);
  Alcotest.(check string)
    (what ^ ": journal bytes") (Sim.journal_bytes a) (Sim.journal_bytes b);
  Alcotest.(check int) (what ^ ": events") a.Sim.events b.Sim.events;
  Alcotest.(check int) (what ^ ": end time") a.Sim.end_ns b.Sim.end_ns;
  Alcotest.(check (list (triple int string string)))
    (what ^ ": status probes") a.Sim.status_probes b.Sim.status_probes;
  a

let test_untraced_equals_traced () =
  let cfg = Sim.config () in
  let seed = Search.schedule_seed in
  for i = 0 to 39 do
    ignore (check_untraced (Printf.sprintf "root 7 schedule %d" i) cfg ~seed:(seed ~root:7L i))
  done;
  let caught what cfg ~seed =
    let r = check_untraced what cfg ~seed in
    Alcotest.(check bool) (what ^ ": caught") true (r.Sim.violation <> None)
  in
  caught "break-complete" (Sim.config ~verify_complete:false ()) ~seed:(seed ~root:7L 0);
  caught "break-fencing" (Sim.config ~fence_epochs:false ()) ~seed:(seed ~root:2L 7);
  let first = Sim.run ~trace:false cfg ~seed:(seed ~root:7L 0) in
  ignore (check_untraced "replay" ~atoms:first.Sim.fired cfg ~seed:(seed ~root:7L 0))

let test_sim_config_validation () =
  Alcotest.check_raises "workers < 1"
    (Invalid_argument "Sim.config: workers must be >= 1") (fun () ->
      ignore (Sim.config ~workers:0 ()))

let suites =
  [
    ( "netsim.sched",
      [
        Alcotest.test_case "order and ties" `Quick test_sched_order;
        Alcotest.test_case "nested scheduling" `Quick test_sched_nested;
        Alcotest.test_case "horizon" `Quick test_sched_horizon;
        Alcotest.test_case "negative delay" `Quick test_sched_negative_after;
        QCheck_alcotest.to_alcotest test_sched_matches_model;
      ] );
    ( "netsim.plan",
      [
        Alcotest.test_case "seed-deterministic" `Quick test_plan_deterministic;
        Alcotest.test_case "replay and silence" `Quick test_plan_replay;
      ] );
    ( "netsim.net",
      [ Alcotest.test_case "wire conformance" `Quick test_conformance_corpus ] );
    ( "netsim.sim",
      [
        Alcotest.test_case "same seed, same bytes" `Quick test_sim_deterministic;
        Alcotest.test_case "exactly-once sweep" `Quick test_sim_exactly_once_sweep;
        Alcotest.test_case "untraced equals traced" `Quick test_untraced_equals_traced;
        Alcotest.test_case "config validation" `Quick test_sim_config_validation;
      ] );
    ( "netsim.search",
      [
        Alcotest.test_case "planted bug caught and shrunk" `Quick
          test_mutation_caught_and_shrunk;
        Alcotest.test_case "fencing bug caught and shrunk" `Quick
          test_fencing_bug_caught_and_shrunk;
      ] );
  ]
