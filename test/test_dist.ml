(* Tests for the distributed campaign subsystem: wire framing (including
   truncation, oversize and garbage fuzz — malformed input must error,
   never raise), the typed codec, the fake-clock lease table, and one
   in-process coordinator/worker run over a real Unix socket. *)

module Dist = Ffault_dist
module Wire = Dist.Wire
module Codec = Dist.Codec
module Lease = Dist.Lease
module Transport = Dist.Transport
module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Json = Campaign.Json
module Grid = Campaign.Grid
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint

let check = Alcotest.check

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

let tmp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "ffault-dist-test-%d-%d" (Unix.getpid ()) !n)
    in
    Checkpoint.mkdir_p dir;
    dir

(* ---- wire ---- *)

let frame tag payload = { Wire.tag; payload }

let drain dec =
  let rec go acc =
    match Wire.Decoder.next dec with
    | Ok (Some f) -> go (f :: acc)
    | Ok None -> Ok (List.rev acc)
    | Error _ as e -> e
  in
  go []

let test_wire_roundtrip () =
  let frames = [ frame 'h' "{}"; frame 'R' (String.make 1000 'x'); frame 'b' "" ] in
  let bytes = String.concat "" (List.map Wire.encode frames) in
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec bytes;
  match drain dec with
  | Error m -> Alcotest.fail m
  | Ok decoded ->
      check Alcotest.int "all frames" (List.length frames) (List.length decoded);
      List.iter2
        (fun (a : Wire.frame) (b : Wire.frame) ->
          check Alcotest.char "tag" a.Wire.tag b.Wire.tag;
          check Alcotest.string "payload" a.Wire.payload b.Wire.payload)
        frames decoded

let test_wire_byte_at_a_time () =
  let f = frame 'l' "{\"lease\":3}" in
  let bytes = Wire.encode f in
  let dec = Wire.Decoder.create () in
  let seen = ref 0 in
  String.iter
    (fun c ->
      Wire.Decoder.feed dec (String.make 1 c);
      match Wire.Decoder.next dec with
      | Ok (Some g) ->
          incr seen;
          check Alcotest.string "payload survives dribble" f.Wire.payload g.Wire.payload
      | Ok None -> ()
      | Error m -> Alcotest.fail m)
    bytes;
  check Alcotest.int "exactly one frame" 1 !seen

let test_wire_truncated () =
  let bytes = Wire.encode (frame 'h' "abcdef") in
  let cut = String.sub bytes 0 (String.length bytes - 3) in
  let dec = Wire.Decoder.create () in
  Wire.Decoder.feed dec cut;
  (match Wire.Decoder.next dec with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "truncated frame decoded"
  | Error m -> Alcotest.fail m);
  (* the rest arrives: the frame completes *)
  Wire.Decoder.feed dec (String.sub bytes (String.length cut) 3);
  match Wire.Decoder.next dec with
  | Ok (Some f) -> check Alcotest.string "completed" "abcdef" f.Wire.payload
  | Ok None -> Alcotest.fail "frame still incomplete"
  | Error m -> Alcotest.fail m

let test_wire_oversized_and_zero () =
  let reject prefix name =
    let dec = Wire.Decoder.create () in
    Wire.Decoder.feed dec prefix;
    (match Wire.Decoder.next dec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": expected a decode error"));
    (* poisoned: even a well-formed frame afterwards stays an error *)
    Wire.Decoder.feed dec (Wire.encode (frame 'h' "x"));
    match Wire.Decoder.next dec with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail (name ^ ": decoder recovered from poison")
  in
  let be32 v =
    let b = Bytes.create 4 in
    Bytes.set_int32_be b 0 v;
    Bytes.to_string b
  in
  reject (be32 (Int32.of_int (Wire.max_frame_bytes + 1))) "oversized";
  reject (be32 0l) "zero length";
  (* a length prefix with the top bit set must error, not wrap around *)
  reject (be32 0x80000001l) "negative length"

let test_wire_fuzz () =
  (* deterministic garbage: the decoder must return Ok/Error, never
     raise, whatever bytes arrive in whatever chunking *)
  let state = ref 0x2545F4914F6CDD1D in
  let next_byte () =
    state := (!state * 25214903917) + 11;
    Char.chr (!state lsr 33 land 0xFF)
  in
  for _round = 1 to 50 do
    let dec = Wire.Decoder.create () in
    let budget = ref 2000 in
    (try
       while !budget > 0 do
         let len = 1 + (Char.code (next_byte ()) mod 64) in
         let chunk = String.init len (fun _ -> next_byte ()) in
         budget := !budget - len;
         Wire.Decoder.feed dec chunk;
         match drain dec with Ok _ | Error _ -> ()
       done
     with e -> Alcotest.failf "decoder raised on garbage: %s" (Printexc.to_string e))
  done

let test_wire_validation () =
  raises_invalid "oversized encode" (fun () ->
      Wire.encode (frame 'x' (String.make (Wire.max_frame_bytes + 1) 'a')))

(* ---- codec ---- *)

let fixture_spec =
  Spec.v ~name:"dist-test" ~protocol:"fig3" ~f:[ 1; 2 ] ~t:[ Some 1 ] ~n:[ 3 ]
    ~rates:[ 0.3; 0.6 ] ~trials:10 ~seed:0xD15CL ()

let fixture_record =
  let cells = Grid.cells fixture_spec in
  {
    Journal.trial = 17;
    cell = cells.(17 / fixture_spec.Spec.trials);
    seed = 0xABCDEFL;
    ok = false;
    outcome = Journal.Violation;
    retries = 1;
    violations = [ "consistency: divergent decide" ];
    steps = 41;
    max_steps = 17;
    stage = 3;
    faults = 2;
    crash_faults = 0;
    wall_us = 180;
    witness = Some [| 1; 0; 2 |];
  }

let all_msgs =
  [
    Codec.Hello { version = Wire.version; name = "w1"; domains = 4; last_epoch = 0 };
    Codec.Hello { version = Wire.version; name = "w2"; domains = 1; last_epoch = 3 };
    Codec.Welcome
      {
        version = Wire.version;
        epoch = 1;
        spec = fixture_spec;
        supervision =
          Campaign.Pool.supervision ~deadline_s:2.5 ~max_retries:3 ~quarantine_after:5 ();
        hb_interval_s = 2.0;
      };
    Codec.Welcome
      {
        version = Wire.version;
        epoch = 4;
        spec = fixture_spec;
        supervision = Codec.no_supervision;
        hb_interval_s = 0.5;
      };
    Codec.Request;
    Codec.Lease { lease = 7; epoch = 2; lo = 100; hi = 200; done_ids = [ 101; 150; 199 ] };
    Codec.Lease { lease = 0; epoch = 1; lo = 0; hi = 50; done_ids = [] };
    Codec.Result fixture_record;
    Codec.Complete { lease = 7; epoch = 2 };
    Codec.heartbeat;
    Codec.Heartbeat
      {
        snapshot = Some (Json.Obj [ ("counters", Json.Obj [ ("x", Json.Int 3) ]) ]);
        spans =
          [
            { Ffault_telemetry.Tracer.ph = 'B'; name = "t"; cat = "c"; ts_ns = 1_234_567; tid = 1 };
          ];
      };
    Codec.Wait { seconds = 0.25 };
    Codec.Bye { reason = "campaign complete" };
  ]

let test_codec_roundtrip () =
  List.iter
    (fun msg ->
      let f = Codec.to_frame msg in
      match Codec.of_frame f with
      | Error m -> Alcotest.failf "%a: %s" Codec.pp msg m
      | Ok msg' ->
          check Alcotest.bool (Fmt.str "%a round-trips" Codec.pp msg) true (msg = msg'))
    all_msgs

(* [s] with its first [sub] replaced by [by]. *)
let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then Alcotest.failf "%S not in payload" sub
    else if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let test_codec_rejects_garbage () =
  (match Codec.of_frame (frame '?' "{}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown tag accepted");
  (match Codec.of_frame (frame 'h' "not json") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed payload accepted");
  (match Codec.of_frame (frame 'l' "{\"lease\":1}") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "lease without bounds accepted");
  (* durations the worker cannot wait on: an infinite Wait parked it
     forever, and a negative one would block the socket wait *)
  List.iter
    (fun payload ->
      match Codec.of_frame (frame 'z' payload) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "wait %s accepted" payload)
    [ "{\"seconds\":1e999}"; "{\"seconds\":-1e999}"; "{\"seconds\":-0.5}" ];
  (match Codec.of_frame (frame 'z' "{\"seconds\":0}") with
  | Ok (Codec.Wait { seconds = 0.0 }) -> ()
  | _ -> Alcotest.fail "zero wait rejected");
  (* a Welcome's heartbeat interval obeys Coordinator.config's rule *)
  let welcome_payload hb =
    (Codec.to_frame
       (Codec.Welcome
          {
            version = Wire.version;
            epoch = 1;
            spec = fixture_spec;
            supervision = Codec.no_supervision;
            hb_interval_s = hb;
          }))
      .Wire.payload
  in
  List.iter
    (fun (what, payload) ->
      match Codec.of_frame (frame 'w' payload) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "welcome with %s heartbeat accepted" what)
    [
      ("zero", welcome_payload 0.0);
      ("negative", welcome_payload (-1.0));
      ("infinite", replace ~sub:"0.125" ~by:"1e999" (welcome_payload 0.125));
    ];
  (* a supervision the Pool builder rejects is a decode error: the
     worker must not raise on it *)
  List.iter
    (fun (sub, by) ->
      match Codec.of_frame (frame 'w' (replace ~sub ~by (welcome_payload 0.5))) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "welcome with supervision %s accepted" by)
    [
      ("\"deadline_s\":null", "\"deadline_s\":0");
      ("\"deadline_s\":null", "\"deadline_s\":-1.5");
      ("\"deadline_s\":null", "\"deadline_s\":1e999");
      ("\"quarantine_after\":3", "\"quarantine_after\":0");
      ("\"max_retries\":2", "\"max_retries\":-1");
    ];
  (* fuzz: random tags and payloads error, never raise *)
  let state = ref 0x9E3779B9 in
  let next () =
    state := (!state * 25214903917) + 11;
    !state lsr 33
  in
  for _ = 1 to 500 do
    let tag = Char.chr (next () land 0xFF) in
    let payload = String.init (next () mod 40) (fun _ -> Char.chr (next () land 0xFF)) in
    try ignore (Codec.of_frame (frame tag payload))
    with e -> Alcotest.failf "codec raised: %s" (Printexc.to_string e)
  done

(* An older coordinator's Welcome also carries "adaptive_deadline": a
   worker decodes it to the same three values and ignores the key. *)
let test_codec_ignores_adaptive_deadline () =
  let supervision =
    Campaign.Pool.supervision ~deadline_s:2.5 ~max_retries:3 ~quarantine_after:5 ()
  in
  let welcome =
    Codec.to_frame
      (Codec.Welcome
         {
           version = Wire.version;
           epoch = 1;
           spec = fixture_spec;
           supervision;
           hb_interval_s = 0.5;
         })
  in
  let payload =
    replace ~sub:"\"quarantine_after\":5"
      ~by:"\"quarantine_after\":5,\"adaptive_deadline\":true" welcome.Wire.payload
  in
  match Codec.of_frame { welcome with Wire.payload } with
  | Ok (Codec.Welcome { supervision = s; _ }) ->
      check Alcotest.bool "the same three values" true (s = supervision)
  | Ok m -> Alcotest.failf "decoded as %a" Codec.pp m
  | Error m -> Alcotest.failf "older Welcome rejected: %s" m

(* A spec whose protocol cannot be built at some cell it sweeps (Fig. 3
   needs a bounded t) is a decode error wherever it arrives from: a
   manifest, a --spec file, or a Welcome. A worker handed one stops on
   the codec error before it runs any trial. *)
let test_codec_rejects_unbuildable_spec () =
  let unbounded = replace ~sub:"\"t\":[1]" ~by:"\"t\":[null]" in
  (match Json.of_string (unbounded (Json.to_string (Spec.to_json fixture_spec))) with
  | Error m -> Alcotest.fail m
  | Ok j -> (
      match Spec.of_json j with
      | Error m ->
          check Alcotest.string "names the offending cell"
            "fig3 cannot run at f=1, t=unbounded, n=3: Bounded_faults: requires a \
             bounded t (faults per object)"
            m
      | Ok _ -> Alcotest.fail "fig3 spec with an unbounded t accepted"));
  let welcome =
    Codec.to_frame
      (Codec.Welcome
         {
           version = Wire.version;
           epoch = 1;
           spec = fixture_spec;
           supervision = Codec.no_supervision;
           hb_interval_s = 0.5;
         })
  in
  match Codec.of_frame { welcome with Wire.payload = unbounded welcome.Wire.payload } with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "welcome carrying an unbuildable spec accepted"

(* ---- transport endpoints ---- *)

let test_endpoint_parse () =
  (match Transport.endpoint_of_string "unix:/tmp/x.sock" with
  | Ok (Transport.Unix_sock "/tmp/x.sock") -> ()
  | _ -> Alcotest.fail "unix endpoint");
  (match Transport.endpoint_of_string "tcp:localhost:9000" with
  | Ok (Transport.Tcp ("localhost", 9000)) -> ()
  | _ -> Alcotest.fail "tcp endpoint");
  (match Transport.endpoint_of_string "tcp:[::1]:9000" with
  | Ok (Transport.Tcp ("::1", 9000)) -> ()
  | _ -> Alcotest.fail "bracketed IPv6 endpoint");
  (match Transport.endpoint_of_string "tcp:[fe80::1%eth0]:80" with
  | Ok (Transport.Tcp ("fe80::1%eth0", 80)) -> ()
  | _ -> Alcotest.fail "scoped IPv6 endpoint");
  List.iter
    (fun s ->
      match Transport.endpoint_of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "tcp:nohost";
      "tcp:host:notaport";
      "ftp:x";
      "";
      "unix:";
      "tcp::9000" (* empty host *);
      "tcp:host:" (* empty port *);
      "tcp:host:0";
      "tcp:host:65536";
      "tcp:host:0x50" (* int_of_string would take this *);
      "tcp:host:-1";
      "tcp:::1:9000" (* unbracketed IPv6 is ambiguous *);
      "tcp:[::1:9000" (* unclosed bracket *);
    ];
  (* the error message names the offending piece, not a generic parse
     failure *)
  let mentions needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  (match Transport.endpoint_of_string "tcp::9000" with
  | Error e ->
      check Alcotest.bool "empty-host error says host" true (mentions "host" e)
  | Ok _ -> Alcotest.fail "accepted empty host");
  (match Transport.endpoint_of_string "tcp:host:70000" with
  | Error e ->
      check Alcotest.bool "range error says range" true (mentions "range" e)
  | Ok _ -> Alcotest.fail "accepted port 70000")

let test_endpoint_round_trip () =
  List.iter
    (fun s ->
      match Transport.endpoint_of_string s with
      | Ok e ->
          check Alcotest.string (Fmt.str "round-trip %s" s) s
            (Transport.endpoint_to_string e)
      | Error err -> Alcotest.failf "%s: %s" s err)
    [ "unix:/tmp/x.sock"; "tcp:localhost:9000"; "tcp:[::1]:9000"; "tcp:10.0.0.1:1" ];
  (* to_string re-brackets a colonful host so its output re-parses *)
  let e = Transport.Tcp ("::1", 4242) in
  let s = Transport.endpoint_to_string e in
  check Alcotest.string "v6 re-bracketed" "tcp:[::1]:4242" s;
  match Transport.endpoint_of_string s with
  | Ok e' -> check Alcotest.bool "reparses to same endpoint" true (e = e')
  | Error err -> Alcotest.fail err

(* ---- lease table (fake clock) ---- *)

let fake_clock start =
  let v = Ffault_runtime.Clock.Virtual.create ~start_ns:start () in
  (Ffault_runtime.Clock.Virtual.clock v, fun d -> Ffault_runtime.Clock.Virtual.advance v ~ns:d)

let test_lease_grant_expire_regrant () =
  let clock, advance = fake_clock 0 in
  let tbl = Lease.create ~clock ~total:100 ~lease_trials:40 ~timeout_ns:1_000 () in
  check Alcotest.int "shards" 3 (Lease.n_shards tbl);
  let l0 =
    match Lease.grant tbl ~owner:"a" with Some l -> l | None -> Alcotest.fail "grant"
  in
  check Alcotest.int "lo" 0 l0.Lease.lo;
  check Alcotest.int "hi" 40 l0.Lease.hi;
  (* last shard is the stub *)
  let _ = Lease.grant tbl ~owner:"a" in
  let l2 =
    match Lease.grant tbl ~owner:"b" with Some l -> l | None -> Alcotest.fail "grant 3"
  in
  check Alcotest.int "stub hi" 100 l2.Lease.hi;
  check Alcotest.bool "all leased" true (Lease.grant tbl ~owner:"c" = None);
  (* b stays chatty, a goes silent past the timeout *)
  advance 900;
  Lease.renew tbl ~owner:"b";
  advance 200;
  let expired = Lease.expire tbl in
  check Alcotest.int "a's two leases expired" 2 (List.length expired);
  check Alcotest.bool "attributed to a" true
    (List.for_all (fun (o, _) -> o = "a") expired);
  (* both shards are grantable again, under fresh lease ids *)
  let regrants =
    List.filter_map (fun owner -> Lease.grant tbl ~owner) [ "c"; "c" ]
  in
  check Alcotest.int "both shards regranted" 2 (List.length regrants);
  let shards l = List.sort compare (List.map (fun x -> x.Lease.shard) l) in
  check
    Alcotest.(list int)
    "same shards come back"
    (shards (List.map snd expired))
    (shards regrants);
  List.iter
    (fun l -> check Alcotest.bool "fresh id" true (l.Lease.id > l2.Lease.id))
    regrants;
  (* the zombie's old lease id no longer completes anything *)
  check Alcotest.bool "stale complete unknown" true
    (Lease.complete tbl ~id:l0.Lease.id = `Unknown);
  check Alcotest.int "expired counter" 2 (Lease.expired_total tbl)

let test_lease_complete_and_done () =
  let clock, _advance = fake_clock 0 in
  let tbl = Lease.create ~clock ~total:20 ~lease_trials:10 ~timeout_ns:1_000 () in
  let take owner =
    match Lease.grant tbl ~owner with Some l -> l | None -> Alcotest.fail "grant"
  in
  let a = take "a" and b = take "b" in
  check Alcotest.bool "not done" false (Lease.is_done tbl);
  (match Lease.complete tbl ~id:a.Lease.id with
  | `Completed l -> check Alcotest.int "completed a" a.Lease.id l.Lease.id
  | `Unknown -> Alcotest.fail "live lease unknown");
  (* a revoked lease requeues without retiring *)
  (match Lease.revoke tbl ~id:b.Lease.id with
  | Some _ -> ()
  | None -> Alcotest.fail "revoke");
  check Alcotest.int "one pending again" 1 (Lease.pending tbl);
  let b' = take "c" in
  check Alcotest.int "same shard back" b.Lease.shard b'.Lease.shard;
  (match Lease.complete tbl ~id:b'.Lease.id with
  | `Completed _ -> ()
  | `Unknown -> Alcotest.fail "re-lease unknown");
  check Alcotest.bool "done" true (Lease.is_done tbl);
  check Alcotest.bool "nothing to grant" true (Lease.grant tbl ~owner:"d" = None);
  check Alcotest.int "granted" 3 (Lease.granted_total tbl);
  check Alcotest.int "completed" 2 (Lease.completed_total tbl)

let test_lease_fail_owner () =
  let clock, _ = fake_clock 0 in
  let tbl = Lease.create ~clock ~total:30 ~lease_trials:10 ~timeout_ns:1_000 () in
  let _ = Lease.grant tbl ~owner:"a" in
  let _ = Lease.grant tbl ~owner:"b" in
  let _ = Lease.grant tbl ~owner:"a" in
  let lost = Lease.fail tbl ~owner:"a" in
  check Alcotest.int "a lost both" 2 (List.length lost);
  check Alcotest.int "b unaffected" 1 (Lease.outstanding tbl);
  check Alcotest.int "both requeued" 2 (Lease.pending tbl)

let test_lease_validation () =
  raises_invalid "total" (fun () ->
      Lease.create ~total:(-1) ~lease_trials:1 ~timeout_ns:1 ());
  raises_invalid "lease_trials" (fun () ->
      Lease.create ~total:1 ~lease_trials:0 ~timeout_ns:1 ());
  raises_invalid "timeout" (fun () ->
      Lease.create ~total:1 ~lease_trials:1 ~timeout_ns:0 ())

(* ---- coordinator config ---- *)

(* ---- engine-level: reconnect backoff, crash recovery, fencing ---- *)

module Core = Dist.Core
module Retry = Ffault_supervise.Retry

let test_reconnect_backoff_schedule () =
  (* the worker's reconnect schedule is a pure function of (policy,
     seed, attempt) — no clock, no sleeping, fully checkable *)
  let p = Dist.Worker.default_retry in
  check Alcotest.int "bounded attempts" 8 p.Retry.max_retries;
  let schedule seed =
    List.init p.Retry.max_retries (fun i -> Retry.backoff_ns p ~seed ~attempt:(i + 1))
  in
  let a = schedule 0xABCL in
  check (Alcotest.list Alcotest.int) "deterministic" a (schedule 0xABCL);
  (* exponential nominal with 0.5x..1.5x jitter, capped *)
  List.iteri
    (fun i ns ->
      let nominal = min (p.Retry.base_backoff_ns lsl i) p.Retry.max_backoff_ns in
      check Alcotest.bool (Fmt.str "attempt %d above half nominal" (i + 1)) true
        (ns >= nominal / 2);
      check Alcotest.bool (Fmt.str "attempt %d under cap" (i + 1)) true
        (ns <= p.Retry.max_backoff_ns * 3 / 2))
    a;
  (* two workers (different seeds) never share a thundering herd *)
  check Alcotest.bool "seeds shear the schedule" true (a <> schedule 0xDEFL)

let fake_io : string Core.io =
  {
    Core.peer = (fun name -> "fake://" ^ name);
    send = (fun _ _ -> Ok ());
    close = (fun _ -> ());
  }

(* A passing record of [trial], with its own cell and seed, as a worker
   of the same grid sends it. *)
let record_for spec trial =
  let tr = Grid.trial spec trial in
  {
    Journal.trial;
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

(* The serve --resume recovery sequence, against a journal whose last
   line was torn mid-append by the dying incarnation: claim a fresh
   epoch from owner.json, rebuild the mask from the intact lines, and
   re-grant only what the journal cannot prove done. *)
let test_restart_recovers_torn_journal () =
  let root = tmp_root () in
  let spec = Spec.v ~name:"torn" ~protocol:"fig1" ~trials:48 () in
  let total = Grid.total_trials spec in
  let dir = Checkpoint.campaign_dir ~root spec in
  Checkpoint.save_manifest ~dir spec;
  let path = Checkpoint.journal_path ~dir in
  let writer = Journal.create_writer ~path in
  for t = 0 to 19 do
    Journal.append writer (record_for spec t)
  done;
  Journal.close_writer writer;
  (* the crash tore the 21st record mid-line *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"trial\":20,\"cel";
  close_out oc;
  (* incarnations fence by claiming strictly increasing epochs *)
  check Alcotest.int "first claim" 1 (Checkpoint.claim_ownership ~dir);
  let epoch = Checkpoint.claim_ownership ~dir in
  check Alcotest.int "second claim" 2 epoch;
  check Alcotest.int "persisted" 2 (Checkpoint.load_epoch ~dir);
  let st = Checkpoint.fresh ~total in
  Journal.fold ~path ~init:() ~f:(fun () r ->
      if not (Checkpoint.is_done st r.Journal.trial) then
        Checkpoint.mark st r.Journal.trial);
  let events = ref [] in
  let core =
    Core.create ~epoch ~io:fake_io
      ~append:(fun _ -> ())
      ~on_event:(fun _ e -> events := e :: !events)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let v = Core.view core in
  check Alcotest.int "epoch" 2 v.Core.vw_epoch;
  check Alcotest.int "restarts" 1 v.Core.vw_restarts;
  check Alcotest.int "torn line dropped, 20 done" 20 v.Core.vw_done;
  check Alcotest.bool "recovery pre-retired the complete shard" true
    (List.exists
       (fun e -> e = "recovery: 1 of 3 shard(s) already complete in the journal")
       !events);
  (* the first grant is the partial shard, done ids included *)
  let sent = ref [] in
  let io = { fake_io with Core.send = (fun _ m -> sent := m :: !sent; Ok ()) } in
  let core =
    Core.create ~epoch ~io
      ~append:(fun _ -> ())
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let cl = Core.add_client core "w9" in
  Core.deliver core cl
    (Codec.to_frame
       (Codec.Hello { version = Wire.version; name = "w9"; domains = 1; last_epoch = 1 }));
  Core.deliver core cl (Codec.to_frame Codec.Request);
  (match !sent with
  | Codec.Lease { lease = _; epoch = e; lo; hi; done_ids } :: _ ->
      check Alcotest.int "grant carries the new epoch" 2 e;
      check Alcotest.int "partial shard lo" 16 lo;
      check Alcotest.int "partial shard hi" 32 hi;
      check (Alcotest.list Alcotest.int) "done ids from the journal"
        [ 16; 17; 18; 19 ] done_ids
  | ms ->
      Alcotest.failf "expected a Lease reply, got %d other message(s)" (List.length ms))

(* Epoch fencing at the engine: a Complete stamped with a dead
   incarnation's grant epoch must not retire the live lease that
   happens to reuse the id — but the same worker's Results are still
   dedup-accepted by trial id. *)
let test_stale_complete_fenced_results_deduped () =
  let spec = Spec.v ~name:"fence" ~protocol:"fig1" ~trials:32 () in
  let total = Grid.total_trials spec in
  let st = Checkpoint.fresh ~total in
  let appended = ref 0 in
  let events = ref [] in
  let core =
    Core.create ~epoch:2 ~io:fake_io
      ~append:(fun _ -> incr appended)
      ~on_event:(fun _ e -> events := e :: !events)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let join name =
    let cl = Core.add_client core name in
    Core.deliver core cl
      (Codec.to_frame
         (Codec.Hello { version = Wire.version; name; domains = 1; last_epoch = 1 }));
    Core.deliver core cl (Codec.to_frame Codec.Request);
    cl
  in
  let _a = join "w-a" (* granted lease #0 [0,16) *) in
  let b = join "w-b" (* granted lease #1 [16,32) *) in
  let result t = Codec.to_frame (Codec.Result (record_for spec t)) in
  Core.deliver core b (result 16);
  Core.deliver core b (result 17);
  check Alcotest.int "results journaled" 2 !appended;
  (* w-b claims epoch-1 lease #0 complete — the id collides with w-a's
     live lease, the epoch gives the staleness away *)
  Core.deliver core b (Codec.to_frame (Codec.Complete { lease = 0; epoch = 1 }));
  let v = Core.view core in
  check Alcotest.int "fenced" 1 v.Core.vw_stale_completes;
  check Alcotest.bool "fence event" true
    (List.exists
       (fun e -> e = "complete #0 fenced: grant epoch 1, coordinator epoch 2 (from w-b)")
       !events);
  (* w-a's colliding lease survives; w-b's own lease was reconciled
     from the journal — 14 trials unjournaled, so requeued *)
  check Alcotest.int "victim lease still outstanding" 1 v.Core.vw_leases_outstanding;
  let wb = List.find (fun w -> w.Core.v_name = "w-b") v.Core.vw_workers in
  check Alcotest.int "w-b lease requeued by reconcile" 1 wb.Core.v_expired;
  (* a replayed Result for an already-journaled trial is deduped *)
  Core.deliver core b (result 16);
  check Alcotest.int "no double append" 2 !appended;
  let v = Core.view core in
  let wb = List.find (fun w -> w.Core.v_name = "w-b") v.Core.vw_workers in
  check Alcotest.int "dedup counted" 1 wb.Core.v_deduped;
  (* the requeued shard travels again, minus the journaled ids *)
  Core.deliver core b (Codec.to_frame Codec.Request);
  let v = Core.view core in
  check Alcotest.int "requeued shard re-granted" 2 v.Core.vw_leases_outstanding

(* The grade every engine message reaches events.jsonl and /events
   with is the one its call site in core.ml states: one engine driven
   through each call site, its events pinned with their severities.
   Worker names that read like trouble ("leftover-1", "expired-host")
   grade like any other. *)
let test_classify_events () =
  let module Events = Ffault_telemetry.Events in
  let spec = Spec.v ~name:"grades" ~protocol:"fig1" ~trials:96 () in
  let st = Checkpoint.fresh ~total:(Grid.total_trials spec) in
  for t = 0 to 15 do
    Checkpoint.mark st t
  done;
  let clock, advance = fake_clock 0 in
  let events = ref [] in
  let core =
    Core.create ~clock ~epoch:2 ~io:fake_io
      ~append:(fun _ -> ())
      ~on_event:(fun severity e -> events := (severity, e) :: !events)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let send cl m = Core.deliver core cl (Codec.to_frame m) in
  let join name =
    let cl = Core.add_client core name in
    send cl (Codec.Hello { version = Wire.version; name; domains = 1; last_epoch = 0 });
    cl
  in
  let leftover = join "leftover-1" in
  let expired = join "expired-host" in
  send expired Codec.Request;
  for t = 16 to 31 do
    send expired (Codec.Result (record_for spec t))
  done;
  (* its Complete is lost: the next Request retires the lease *)
  send expired Codec.Request;
  send expired (Codec.Complete { lease = 1; epoch = 2 });
  send expired (Codec.Complete { lease = 0; epoch = 1 });
  send leftover Codec.Request;
  send leftover Codec.Request;
  let w3 = join "w3" in
  send w3 Codec.Request;
  Core.client_closed core w3 ~why:"connection closed";
  advance 10_000_000_001;
  Core.tick core;
  let grade = Alcotest.testable Fmt.(using Events.severity_to_string string) ( = ) in
  check
    Alcotest.(list (pair grade string))
    "every call site at its severity"
    [
      (Events.Info, "recovery: 1 of 6 shard(s) already complete in the journal");
      (Events.Info, "worker leftover-1 joined from fake://leftover-1 (1 domains)");
      (Events.Info, "worker expired-host joined from fake://expired-host (1 domains)");
      (Events.Info, "lease #0 [16,32) -> expired-host");
      ( Events.Info,
        "lease #0 [16,32) of expired-host retired at request (complete lost in flight)" );
      (Events.Info, "lease #1 [32,48) -> expired-host");
      (Events.Warn, "lease #1 completed with 16 trial(s) unjournaled \xe2\x80\x94 requeued");
      (Events.Warn, "complete #0 fenced: grant epoch 1, coordinator epoch 2 (from expired-host)");
      (Events.Info, "lease #2 [48,64) -> leftover-1");
      ( Events.Warn,
        "lease #2 [48,64) of leftover-1 reconciled at request: 16 trial(s) unjournaled \xe2\x80\x94 \
         requeued" );
      (Events.Info, "lease #3 [64,80) -> leftover-1");
      (Events.Info, "worker w3 joined from fake://w3 (1 domains)");
      (Events.Info, "lease #4 [80,96) -> w3");
      (Events.Warn, "worker w3 left (connection closed)");
      (Events.Warn, "lease #4 [80,96) reclaimed from w3 (connection closed)");
      (Events.Warn, "lease #3 [64,80) of leftover-1 expired (no traffic for 10s)");
      (Events.Warn, "worker expired-host left (heartbeat silence (watchdog))");
      (Events.Warn, "worker leftover-1 left (heartbeat silence (watchdog))");
    ]
    (List.rev !events)

(* A Result whose cell or seed is not its trial's is a protocol
   violation, like an out-of-grid id: not journaled, and its sender is
   dropped with one event. A crash-free cell's record is judged by the
   fields its line carries: in a spec with crashes [0; 1] the grid gives
   crash-free cells the spec's crash rate, which their lines omit. *)
let test_result_of_another_trial_dropped () =
  let spec =
    Spec.v ~name:"own" ~protocol:"rec-cas" ~n:[ 2 ] ~crashes:[ 0; 1 ] ~crash_rates:[ 0.2 ]
      ~trials:4 ~seed:0x0E1L ()
  in
  let total = Grid.total_trials spec in
  let st = Checkpoint.fresh ~total in
  let appended = ref [] in
  let events = ref [] in
  let core =
    Core.create ~io:fake_io
      ~append:(fun r -> appended := r.Journal.trial :: !appended)
      ~on_event:(fun severity e -> events := (severity, e) :: !events)
      ~st ~spec ~lease_trials:4 ~lease_timeout_s:10.0 ~hb_interval_s:0.5 ~max_workers:4
      ~supervision:Codec.no_supervision ()
  in
  let deliver name record =
    let cl = Core.add_client core name in
    Core.deliver core cl
      (Codec.to_frame
         (Codec.Hello { version = Wire.version; name; domains = 1; last_epoch = 0 }));
    let before = List.length !events in
    Core.deliver core cl (Codec.to_frame (Codec.Result record));
    (cl, List.filteri (fun i _ -> i < List.length !events - before) !events)
  in
  let rejected what record =
    let cl, new_events = deliver what record in
    check Alcotest.bool (what ^ ": client dropped") true (Core.dropped cl);
    check Alcotest.(list int) (what ^ ": nothing journaled") [] !appended;
    match new_events with
    | [ (severity, e) ] ->
        check Alcotest.bool (what ^ ": the event names the trial") true
          (String.starts_with ~prefix:(Fmt.str "worker %s left (result for trial 1 " what) e);
        check Alcotest.bool (what ^ ": a warning") true
          (severity = Ffault_telemetry.Events.Warn)
    | es -> Alcotest.failf "%s: %d events, expected one" what (List.length es)
  in
  let crash_free = record_for spec 1 and crash = record_for spec 5 in
  check Alcotest.int "trial 1 is crash-free" 0 crash_free.Journal.cell.Grid.crashes;
  check (Alcotest.float 0.0) "with the spec's crash rate" 0.2
    crash_free.Journal.cell.Grid.crash_rate;
  check Alcotest.int "trial 5 has crashes" 1 crash.Journal.cell.Grid.crashes;
  rejected "wrong-cell" { crash_free with Journal.cell = crash.Journal.cell };
  rejected "wrong-seed" { crash_free with Journal.seed = Int64.succ crash_free.Journal.seed };
  rejected "wrong-rate"
    { crash_free with Journal.cell = { crash_free.Journal.cell with Grid.rate = -0.0 } };
  (* what a worker of the same grid sends: the crash-free record read
     back from its line has crash rate 0.0 *)
  (match Journal.of_line (Journal.to_line crash_free) with
  | Ok r -> check (Alcotest.float 0.0) "read back crash rate" 0.0 r.Journal.cell.Grid.crash_rate
  | Error m -> Alcotest.fail m);
  let cl, _ = deliver "same-grid" crash_free in
  let cl', _ = deliver "same-grid-crash" crash in
  check Alcotest.bool "kept" false (Core.dropped cl || Core.dropped cl');
  check Alcotest.(list int) "journaled" [ 5; 1 ] !appended

(* Heartbeat silence at the engine, in virtual time: a connected client
   whose slot has been silent longer than the lease timeout is dropped
   on the next tick, in client order, while a client that keeps sending
   frames stays. Idle slots are nobody's silence. *)
let test_silent_client_dropped () =
  let spec = Spec.v ~name:"silence" ~protocol:"fig1" ~trials:32 () in
  let st = Checkpoint.fresh ~total:(Grid.total_trials spec) in
  let clock, advance = fake_clock 0 in
  let events = ref [] and dropped = ref [] in
  let core =
    Core.create ~clock ~io:fake_io
      ~append:(fun _ -> ())
      ~on_event:(fun _ e -> events := e :: !events)
      ~on_drop:(fun c -> dropped := Core.conn c :: !dropped)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:2.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let join name =
    let cl = Core.add_client core name in
    Core.deliver core cl
      (Codec.to_frame
         (Codec.Hello { version = Wire.version; name; domains = 1; last_epoch = 0 }));
    cl
  in
  let chatty = join "w-chatty" in
  let silent = join "w-silent" in
  for _ = 1 to 4 do
    advance 500_000_000;
    Core.deliver core chatty
      (Codec.to_frame (Codec.Heartbeat { snapshot = None; spans = [] }));
    Core.tick core
  done;
  check (Alcotest.list Alcotest.string) "nothing dropped at 2 s" [] !dropped;
  advance 1;
  Core.tick core;
  check (Alcotest.list Alcotest.string) "only the silent client dropped" [ "w-silent" ]
    !dropped;
  check Alcotest.bool "silent client dropped" true (Core.dropped silent);
  check Alcotest.bool "chatty client kept" false (Core.dropped chatty);
  check Alcotest.bool "drop reason" true
    (List.mem "worker w-silent left (heartbeat silence (watchdog))" !events);
  check Alcotest.int "connected" 1 (Core.view core).Core.vw_workers_connected

(* A Core over [fake_io] with a 2 s lease timeout and [max_workers]
   heartbeat slots, on [clock]; [dropped] collects dropped clients,
   newest first. *)
let slot_core ?clock ~dropped ~max_workers () =
  let spec = Spec.v ~name:"slots" ~protocol:"fig1" ~trials:32 () in
  let st = Checkpoint.fresh ~total:(Grid.total_trials spec) in
  Core.create ?clock ~io:fake_io
    ~append:(fun _ -> ())
    ~on_drop:(fun c -> dropped := Core.conn c :: !dropped)
    ~st ~spec ~lease_trials:16 ~lease_timeout_s:2.0 ~hb_interval_s:0.5 ~max_workers
    ~supervision:Codec.no_supervision ()

let say_hello core cl =
  Core.deliver core cl
    (Codec.to_frame
       (Codec.Hello { version = Wire.version; name = Core.conn cl; domains = 1; last_epoch = 0 }))

let say_heartbeat core cl =
  Core.deliver core cl (Codec.to_frame (Codec.Heartbeat { snapshot = None; spans = [] }))

(* The heartbeat-slot rules with a single slot, in virtual time: a worker
   that joins while the slot is held gets none, so its silence drops
   nothing; once the holder is dropped, the next worker to say Hello
   takes the freed slot and is dropped when silent past the lease
   timeout, while the slotless worker stays. *)
let test_core_heartbeat_slots () =
  let clock, advance = fake_clock 0 in
  let dropped = ref [] in
  let core = slot_core ~clock ~dropped ~max_workers:1 () in
  let join name =
    let cl = Core.add_client core name in
    say_hello core cl;
    cl
  in
  let holder = join "w-holder" in
  let slotless = join "w-slotless" in
  for _ = 1 to 10 do
    advance 500_000_000;
    say_heartbeat core holder;
    Core.tick core
  done;
  check (Alcotest.list Alcotest.string) "a slotless silence drops nothing" [] !dropped;
  advance 2_000_000_001;
  Core.tick core;
  check (Alcotest.list Alcotest.string) "the silent holder dropped" [ "w-holder" ] !dropped;
  let next = join "w-next" in
  advance 2_000_000_000;
  Core.tick core;
  check Alcotest.bool "the next Hello holds the freed slot" false (Core.dropped next);
  advance 1;
  Core.tick core;
  check (Alcotest.list Alcotest.string) "its silence drops it" [ "w-next"; "w-holder" ]
    !dropped;
  check Alcotest.bool "the slotless worker stays" false (Core.dropped slotless);
  check Alcotest.int "connected" 1 (Core.view core).Core.vw_workers_connected

(* A worker's trace row keeps what a tracer ring keeps: a Core fed more
   than 65,536 span events over several heartbeats reports exactly the
   newest 65,536 for that worker while this process traces, and keeps
   none while it does not. *)
let test_core_bounds_worker_spans () =
  let module Tracer = Ffault_telemetry.Tracer in
  let batches = 5 and per_batch = 20_000 in
  let total = batches * per_batch in
  let ev i = { Tracer.ph = 'i'; name = "t"; cat = ""; ts_ns = i; tid = 0 } in
  let feed () =
    let core = slot_core ~dropped:(ref []) ~max_workers:1 () in
    let cl = Core.add_client core "w-spans" in
    say_hello core cl;
    for b = 0 to batches - 1 do
      let spans = List.init per_batch (fun i -> ev ((b * per_batch) + i)) in
      Core.deliver core cl (Codec.to_frame (Codec.Heartbeat { snapshot = None; spans }))
    done;
    (Core.summary core ~wall_s:1.0).Core.worker_spans
  in
  Tracer.enable ();
  let traced = Fun.protect ~finally:Tracer.disable feed in
  let cap = Tracer.default_capacity in
  (match traced with
  | [ ("w-spans", evs) ] ->
      check Alcotest.int "the newest 65,536 kept" cap (List.length evs);
      check Alcotest.bool "exactly the newest, oldest first" true
        (evs = List.init cap (fun i -> ev (total - cap + i)))
  | rows -> Alcotest.failf "%d worker row(s) while tracing" (List.length rows));
  check Alcotest.int "no row while not tracing" 0 (List.length (feed ()))

(* Heartbeats live in Core as one clock stamp per slot. The Hello that
   takes a slot stamps it, every later frame re-stamps it, and [tick]
   drops a holder whose stamp is older than the lease timeout: 1 ns
   past it, no sooner. A client that never said Hello holds no slot and
   is never judged, and each slot ages on its own. *)
let test_heartbeat_beats_and_ages () =
  let clock, advance = fake_clock 1_000 in
  let dropped = ref [] in
  let core = slot_core ~clock ~dropped ~max_workers:2 () in
  let tick_drops what expected =
    Core.tick core;
    check (Alcotest.list Alcotest.string) what expected !dropped
  in
  let a = Core.add_client core "w-a" in
  advance 10_000_000_000;
  tick_drops "never beat, never judged" [];
  say_hello core a;
  advance 250_000_000;
  let b = Core.add_client core "w-b" in
  say_hello core b;
  advance 1_750_000_000;
  tick_drops "an age of exactly the timeout is not silence" [];
  say_heartbeat core a;
  advance 250_000_000;
  tick_drops "the other slot still at the timeout" [];
  advance 1;
  tick_drops "the other slot ages on its own" [ "w-b" ];
  advance 1_749_999_999;
  tick_drops "the re-beat reset the age" [ "w-b" ];
  advance 1;
  tick_drops "aged from the re-beat" [ "w-a"; "w-b" ]

let test_heartbeat_validation () =
  let dropped = ref [] in
  raises_invalid "no slots" (fun () -> slot_core ~dropped ~max_workers:0 ());
  raises_invalid "negative slots" (fun () -> slot_core ~dropped ~max_workers:(-1) ())

(* The coordinator's [supervise.heartbeats] counts Heartbeat frames, not
   frames: a worker that says Hello, asks for a lease, returns results
   and beats M times moves it by exactly M, while every one of those
   frames still renews the worker's liveness. *)
let test_heartbeat_count () =
  let spec = Spec.v ~name:"beats" ~protocol:"fig1" ~trials:32 () in
  let st = Checkpoint.fresh ~total:(Grid.total_trials spec) in
  let clock, advance = fake_clock 0 in
  let beats () =
    Option.value ~default:0
      (Ffault_telemetry.Metrics.find_counter
         (Ffault_telemetry.Metrics.snapshot ())
         "supervise.heartbeats")
  in
  let before = beats () in
  let appended = ref 0 in
  let core =
    Core.create ~clock ~io:fake_io
      ~append:(fun _ -> incr appended)
      ~st ~spec ~lease_trials:16 ~lease_timeout_s:2.0 ~hb_interval_s:0.5
      ~max_workers:4 ~supervision:Codec.no_supervision ()
  in
  let cl = Core.add_client core "w-beats" in
  let send msg = Core.deliver core cl (Codec.to_frame msg) in
  send (Codec.Hello { version = Wire.version; name = "w-beats"; domains = 1; last_epoch = 0 });
  send Codec.Request;
  let m = ref 0 in
  for trial = 0 to 5 do
    advance 400_000_000;
    send (Codec.Result (record_for spec trial));
    if trial mod 2 = 0 then begin
      send (Codec.Heartbeat { snapshot = None; spans = [] });
      incr m
    end;
    Core.tick core
  done;
  check Alcotest.int "results journaled" 6 !appended;
  check Alcotest.int "one count per Heartbeat frame" 3 !m;
  check Alcotest.int "counter rose by the Heartbeat frames" !m (beats () - before);
  (* 2.4 s of virtual time, never 2 s without a frame: still connected *)
  check Alcotest.bool "every frame is liveness" false (Core.dropped cl)

let test_coordinator_config_validation () =
  let ep = Transport.Unix_sock "/tmp/x.sock" in
  raises_invalid "lease_trials" (fun () -> Dist.Coordinator.config ~lease_trials:0 ep);
  raises_invalid "lease_timeout" (fun () ->
      Dist.Coordinator.config ~lease_timeout_s:0.0 ep);
  raises_invalid "hb under timeout" (fun () ->
      Dist.Coordinator.config ~lease_timeout_s:1.0 ~hb_interval_s:1.0 ep);
  raises_invalid "max_workers" (fun () -> Dist.Coordinator.config ~max_workers:0 ep)

(* ---- end-to-end over a Unix socket ---- *)

let runner_tasks () =
  Option.value ~default:0
    (Ffault_telemetry.Metrics.find_counter (Ffault_telemetry.Metrics.snapshot ())
       "runner.tasks")

(* One coordinator thread, one in-process worker, a real socket. The
   resume path is exercised by pre-journaling a prefix of the grid: the
   re-leases must carry those ids as done and the worker must skip them
   — exactly-once, counted three ways (journal lines, unique trial ids,
   skip accounting). *)
let test_serve_exactly_once () =
  let root = tmp_root () in
  let sock = Filename.concat root "coord.sock" in
  let spec =
    Spec.v ~name:"dist-e2e" ~protocol:"fig3" ~f:[ 1 ] ~t:[ Some 1 ] ~n:[ 3 ]
      ~rates:[ 0.3; 0.6 ] ~trials:60 ~seed:0xE2EL ()
  in
  let total = Grid.total_trials spec in
  (* pre-journal the first 25 trials, as a killed run would leave them *)
  let dir = Checkpoint.campaign_dir ~root spec in
  Checkpoint.save_manifest ~dir spec;
  let writer = Journal.create_writer ~path:(Checkpoint.journal_path ~dir) in
  let cells = Grid.cells spec in
  let pre = 25 in
  for trial = 0 to pre - 1 do
    Journal.append writer
      {
        Journal.trial;
        cell = cells.(trial / spec.Spec.trials);
        seed = 0L;
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
  done;
  Journal.close_writer writer;
  let cfg =
    Dist.Coordinator.config ~lease_trials:16 ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      (Transport.Unix_sock sock)
  in
  let skips = Atomic.make 0 in
  let serve_result = ref (Error "never ran") in
  let coordinator =
    Thread.create
      (fun () ->
        serve_result :=
          Dist.Coordinator.serve ~resume:true
            ~on_skip:(fun () -> Atomic.incr skips)
            ~root cfg spec)
      ()
  in
  (* wait for the socket to exist before connecting *)
  let rec await n =
    if Sys.file_exists sock then ()
    else if n = 0 then Alcotest.fail "coordinator never listened"
    else begin
      Thread.delay 0.05;
      await (n - 1)
    end
  in
  await 100;
  let tasks_before = runner_tasks () in
  let worker =
    match
      Dist.Worker.run (Dist.Worker.config ~name:"w-test" ~domains:2 (Transport.Unix_sock sock))
    with
    | Ok s -> s
    | Error m -> Alcotest.failf "worker: %s" m
  in
  let tasks = runner_tasks () - tasks_before in
  Thread.join coordinator;
  match !serve_result with
  | Error m -> Alcotest.failf "serve: %s" m
  | Ok summary ->
      check Alcotest.int "journal complete"
        total
        (Journal.count ~path:(Checkpoint.journal_path ~dir));
      let ids = Hashtbl.create total in
      Journal.fold
        ~path:(Checkpoint.journal_path ~dir)
        ~init:()
        ~f:(fun () r -> Hashtbl.replace ids r.Journal.trial ());
      check Alcotest.int "every id exactly once" total (Hashtbl.length ids);
      check Alcotest.int "skips = pre-journaled" pre (Atomic.get skips);
      check Alcotest.int "pool accounting" total
        (summary.Dist.Coordinator.pool.Campaign.Pool.executed
        + summary.Dist.Coordinator.pool.Campaign.Pool.skipped);
      check Alcotest.int "worker ran the rest" (total - pre)
        worker.Dist.Worker.trials_run;
      (* one runner task per trial of the worker's leases *)
      check Alcotest.int "runner tasks = trials run" worker.Dist.Worker.trials_run tasks;
      (* recovery pre-retires the fully-journaled shards, so only the
         partially-done shard's ids travel as done_ids *)
      check Alcotest.int "worker skipped the done ids in live shards" (pre mod 16)
        worker.Dist.Worker.trials_skipped;
      check Alcotest.bool "no expired leases" true
        (summary.Dist.Coordinator.leases_expired = 0);
      (* workers.json landed and names the worker *)
      (match Campaign.Report.of_dir ~dir with
      | Error m -> Alcotest.fail m
      | Ok report -> (
          match report.Campaign.Report.workers with
          | None -> Alcotest.fail "no workers.json in report"
          | Some w ->
              let md = Campaign.Report.to_markdown report in
              check Alcotest.bool "markdown has Workers section" true
                (let sub = "## Workers" in
                 let rec find i =
                   i + String.length sub <= String.length md
                   && (String.sub md i (String.length sub) = sub || find (i + 1))
                 in
                 find 0);
              check Alcotest.bool "workers json is an object" true
                (match w with Campaign.Json.Obj _ -> true | _ -> false)))

(* ---- bounded receive ---- *)

(* A conn on one end of a socketpair; the test writes raw bytes to the
   other end. *)
let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let conn = Transport.conn_of_fd ~peer:"pair" a in
  Fun.protect
    ~finally:(fun () ->
      Transport.close conn;
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f conn b)

let write_all fd s = ignore (Unix.write_substring fd s 0 (String.length s))
let wire_of msg = Wire.encode (Codec.to_frame msg)

let expect_msg what want = function
  | `Msg m -> check Alcotest.bool what true (m = want)
  | `Timeout -> Alcotest.failf "%s: timed out" what
  | `Closed -> Alcotest.failf "%s: closed" what
  | `Error e -> Alcotest.failf "%s: %s" what e

let test_recv_within_timeout () =
  with_socketpair @@ fun conn _peer ->
  let t0 = Unix.gettimeofday () in
  let r = Transport.recv_within conn ~timeout_s:0.1 in
  let dt = Unix.gettimeofday () -. t0 in
  check Alcotest.bool "nothing sent: timeout" true (r = `Timeout);
  check Alcotest.bool (Fmt.str "waited about the timeout (%.3fs)" dt) true
    (dt >= 0.09 && dt < 1.0)

let test_recv_within_stash () =
  with_socketpair @@ fun conn peer ->
  let first = Codec.Wait { seconds = 0.5 } and second = Codec.Bye { reason = "done" } in
  write_all peer (wire_of first ^ wire_of second);
  expect_msg "first frame" first (Transport.recv_within conn ~timeout_s:1.0);
  (* a zero timeout still serves the second: it is already decoded *)
  expect_msg "second frame from the stash" second
    (Transport.recv_within conn ~timeout_s:0.0)

let test_recv_within_split_frame () =
  with_socketpair @@ fun conn peer ->
  let msg = Codec.Bye { reason = "split across two writes" } in
  let bytes = wire_of msg in
  let cut = String.length bytes / 2 in
  write_all peer (String.sub bytes 0 cut);
  check Alcotest.bool "half a frame: timeout" true
    (Transport.recv_within conn ~timeout_s:0.05 = `Timeout);
  write_all peer (String.sub bytes cut (String.length bytes - cut));
  expect_msg "the rest completes it" msg (Transport.recv_within conn ~timeout_s:1.0)

let test_recv_within_closed () =
  with_socketpair @@ fun conn peer ->
  Unix.close peer;
  check Alcotest.bool "peer closed" true
    (Transport.recv_within conn ~timeout_s:1.0 = `Closed)

(* ---- grouped Result writes ---- *)

(* Both ends of a socketpair as conns: [w] writes as a worker does, [c]
   reads. *)
let with_conn_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let w = Transport.conn_of_fd ~peer:"w" a and c = Transport.conn_of_fd ~peer:"c" b in
  Fun.protect
    ~finally:(fun () ->
      Transport.close w;
      Transport.close c)
    (fun () -> f w c)

let sent what = function Ok () -> () | Error e -> Alcotest.failf "%s: %s" what e
let readable c = match Unix.select [ Transport.fd c ] [] [] 0.0 with [], _, _ -> false | _ -> true

(* The next [n] messages on [c], in order. *)
let recv_n c n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match Transport.recv_within c ~timeout_s:2.0 with
      | `Msg m -> go (m :: acc) (k - 1)
      | `Timeout -> Alcotest.failf "timed out with %d of %d messages" (n - k) n
      | `Closed -> Alcotest.fail "closed"
      | `Error e -> Alcotest.fail e
  in
  go [] n

let trial_of = function
  | Codec.Result r -> r.Journal.trial
  | m -> Alcotest.failf "expected a Result, got %a" Codec.pp m

let group_spec = Spec.v ~name:"groups" ~protocol:"fig1" ~trials:200 ()
let result_msg t = Codec.Result (record_for group_spec t)

let counter name =
  Option.value ~default:0
    (Ffault_telemetry.Metrics.find_counter (Ffault_telemetry.Metrics.snapshot ()) name)

(* A lease's first Result goes out at once; the 63 pushed after it stay
   pending, and the 64th writes all of them in one write. *)
let test_push_writes_groups () =
  with_conn_pair @@ fun w c ->
  sent "first" (Transport.send_msg w (result_msg 0));
  check Alcotest.(list int) "the first Result is readable at once" [ 0 ]
    (List.map trial_of (recv_n c 1));
  for t = 1 to 63 do
    sent "push" (Transport.push_msg w (result_msg t))
  done;
  check Alcotest.bool "63 pushed Results: nothing to read" false (readable c);
  let writes = counter "dist.writes" and frames = counter "dist.frames_sent" in
  sent "push" (Transport.push_msg w (result_msg 64));
  check Alcotest.int "the 64th writes the group in one write" 1
    (counter "dist.writes" - writes);
  check Alcotest.int "dist.frames_sent counts its frames" 64
    (counter "dist.frames_sent" - frames);
  check Alcotest.(list int) "all 64 readable, in order" (List.init 64 (( + ) 1))
    (List.map trial_of (recv_n c 64));
  check Alcotest.bool "nothing more" false (readable c)

(* [pushed] Results pushed, then [msg] sent by [send]: the peer reads
   nothing until [msg] is sent, then the Results in order, then [msg]. *)
let pending_first ~pushed ~send msg =
  with_conn_pair @@ fun w c ->
  for t = 0 to pushed - 1 do
    sent "push" (Transport.push_msg w (result_msg t))
  done;
  check Alcotest.bool (Fmt.str "%d pushed Results: nothing to read" pushed) false
    (readable c);
  sent "send" (send w msg);
  let msgs = recv_n c (pushed + 1) in
  check Alcotest.(list int) "the pushed Results first, in order" (List.init pushed Fun.id)
    (List.map trial_of (List.filteri (fun i _ -> i < pushed) msgs));
  check Alcotest.bool "then the frame sent" true (List.nth msgs pushed = msg)

let test_send_writes_pending_first () =
  pending_first ~pushed:10 ~send:Transport.send_msg (Codec.Complete { lease = 3; epoch = 1 })

(* The worker's heartbeat thread shares the conn with its result stream:
   a beat writes whatever the stream has pushed ahead of itself. *)
let test_heartbeat_writes_pending_first () =
  pending_first ~pushed:5 Codec.heartbeat ~send:(fun w msg ->
      let beat = ref (Error "never ran") in
      Thread.join (Thread.create (fun () -> beat := Transport.send_msg w msg) ());
      !beat)

(* A worker whose connection dies mid-lease replays the lease on its next
   session: every record, in trial order, then the lease's [Complete]
   under the grant's epoch, and it runs no trial twice. A scripted
   coordinator closes the first session once the lease's first Result
   arrives. The worker runs in a domain of its own, so it keeps running
   trials while the script closes the socket. *)
let test_worker_resends_lease () =
  let root = tmp_root () in
  let ep = Transport.Unix_sock (Filename.concat root "coord.sock") in
  let spec =
    Spec.v ~name:"dist-resend" ~protocol:"fig3" ~f:[ 1 ] ~t:[ Some 1 ] ~n:[ 3 ]
      ~rates:[ 0.3 ] ~trials:2000 ~seed:0x5EDL ()
  in
  let total = Grid.total_trials spec in
  let listener = match Transport.listen ep with Ok l -> l | Error e -> Alcotest.fail e in
  let worker =
    Domain.spawn (fun () ->
        Dist.Worker.run
          ~retry:(Retry.policy ~max_retries:2 ~base_backoff_ns:10_000_000 ())
          (Dist.Worker.config ~name:"w-resend" ep))
  in
  let accept () =
    match Unix.select [ Transport.listener_fd listener ] [] [] 10.0 with
    | [], _, _ -> Alcotest.fail "the worker never connected"
    | _ -> ( match Transport.accept listener with Ok c -> c | Error e -> Alcotest.fail e)
  in
  (* the next frame that is not a heartbeat *)
  let rec recv conn =
    match Transport.recv_within conn ~timeout_s:10.0 with
    | `Msg (Codec.Heartbeat _) -> recv conn
    | `Msg m -> m
    | `Timeout -> Alcotest.fail "scripted coordinator: timed out"
    | `Closed -> Alcotest.fail "scripted coordinator: closed"
    | `Error e -> Alcotest.fail e
  in
  let welcome conn ~last_epoch =
    (match recv conn with
    | Codec.Hello h -> check Alcotest.int "the Hello's last epoch" last_epoch h.last_epoch
    | m -> Alcotest.failf "expected hello, got %a" Codec.pp m);
    sent "welcome"
      (Transport.send_msg conn
         (Codec.Welcome
            {
              version = Wire.version;
              epoch = 1;
              spec;
              supervision = Codec.no_supervision;
              hb_interval_s = 10.0;
            }))
  in
  let first = accept () in
  welcome first ~last_epoch:0;
  (match recv first with
  | Codec.Request -> ()
  | m -> Alcotest.failf "expected request, got %a" Codec.pp m);
  sent "lease"
    (Transport.send_msg first (Codec.Lease { lease = 7; epoch = 1; lo = 0; hi = total; done_ids = [] }));
  check Alcotest.int "the lease's first Result" 0 (trial_of (recv first));
  Transport.close first;
  let second = accept () in
  welcome second ~last_epoch:1;
  let rec replayed acc =
    match recv second with
    | Codec.Result r -> replayed (r.Journal.trial :: acc)
    | Codec.Complete { lease; epoch } ->
        check Alcotest.(pair int int) "the Complete of the grant" (7, 1) (lease, epoch);
        List.rev acc
    | m -> Alcotest.failf "expected a Result or the Complete, got %a" Codec.pp m
  in
  check Alcotest.(list int) "every record, in trial order, then the Complete"
    (List.init total Fun.id) (replayed []);
  (match recv second with
  | Codec.Request -> ()
  | m -> Alcotest.failf "expected request, got %a" Codec.pp m);
  sent "bye" (Transport.send_msg second (Codec.Bye { reason = "done" }));
  let result = Domain.join worker in
  Transport.close second;
  Transport.close_listener listener;
  match result with
  | Error e -> Alcotest.failf "worker: %s" e
  | Ok s ->
      check Alcotest.int "one reconnect" 1 s.Dist.Worker.reconnects;
      check Alcotest.int "each trial run once" total s.Dist.Worker.trials_run

(* The end-of-campaign tail: a worker told to [Wait] must leave as soon
   as the coordinator says [Bye], not when its wait runs out. A raw
   client holds lease #0 while the real worker runs lease #1, asks for
   more and is told to wait 1 s (lease timeout 30 s / 4, capped at 1);
   then the raw client finishes lease #0 and the campaign ends. *)
let test_bye_ends_wait () =
  let root = tmp_root () in
  let sock = Filename.concat root "coord.sock" in
  let spec =
    Spec.v ~name:"dist-bye" ~protocol:"fig3" ~f:[ 1 ] ~t:[ Some 1 ] ~n:[ 3 ]
      ~rates:[ 0.3 ] ~trials:32 ~seed:0xB1EL ()
  in
  let total = Grid.total_trials spec in
  let cfg =
    Dist.Coordinator.config ~lease_trials:16 ~lease_timeout_s:30.0 ~hb_interval_s:0.5
      (Transport.Unix_sock sock)
  in
  let journaled = Atomic.make 0 in
  let serve_result = ref (Error "never ran") and serve_done = ref 0.0 in
  let coordinator =
    Thread.create
      (fun () ->
        serve_result :=
          Dist.Coordinator.serve ~observe:(fun _ -> Atomic.incr journaled) ~root cfg spec;
        serve_done := Unix.gettimeofday ())
      ()
  in
  let rec await what cond n =
    if not (cond ()) then
      if n = 0 then Alcotest.failf "timed out waiting for %s" what
      else begin
        Thread.delay 0.01;
        await what cond (n - 1)
      end
  in
  await "the coordinator to listen" (fun () -> Sys.file_exists sock) 500;
  let raw =
    match Transport.connect (Transport.Unix_sock sock) with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let send m =
    match Transport.send_msg raw m with Ok () -> () | Error e -> Alcotest.fail e
  in
  let recv () =
    match Transport.recv_msg raw with
    | `Msg m -> m
    | `Closed -> Alcotest.fail "raw client: closed"
    | `Error e -> Alcotest.fail e
  in
  send (Codec.Hello { version = Wire.version; name = "w-raw"; domains = 1; last_epoch = 0 });
  (match recv () with
  | Codec.Welcome _ -> ()
  | m -> Alcotest.failf "expected welcome, got %a" Codec.pp m);
  send Codec.Request;
  let lease, epoch, lo, hi =
    match recv () with
    | Codec.Lease { lease; epoch; lo; hi; done_ids = [] } -> (lease, epoch, lo, hi)
    | m -> Alcotest.failf "expected a fresh lease, got %a" Codec.pp m
  in
  check Alcotest.int "raw client holds shard 0" 0 lo;
  let worker_result = ref (Error "never ran") and worker_done = ref 0.0 in
  let worker =
    Thread.create
      (fun () ->
        worker_result :=
          Dist.Worker.run
            ~retry:(Retry.policy ~max_retries:0 ())
            (Dist.Worker.config ~name:"w-real" (Transport.Unix_sock sock));
        worker_done := Unix.gettimeofday ())
      ()
  in
  (* the worker's lease is journaled; give it a moment to complete it,
     request again and be told to wait *)
  await "the worker's lease" (fun () -> Atomic.get journaled = total - (hi - lo)) 1000;
  Thread.delay 0.1;
  for t = lo to hi - 1 do
    send (Codec.Result (record_for spec t))
  done;
  (* once the last Result lands the coordinator may complete the fully
     journaled lease itself and close after its Bye, before this
     Complete is written; like the worker's [bye_or], read the Bye
     either way *)
  ignore (Transport.send_msg raw (Codec.Complete { lease; epoch }));
  (match recv () with
  | Codec.Bye _ -> ()
  | m -> Alcotest.failf "expected bye, got %a" Codec.pp m);
  Transport.close raw;
  Thread.join coordinator;
  Thread.join worker;
  (match !serve_result with Ok _ -> () | Error m -> Alcotest.failf "serve: %s" m);
  (match !worker_result with
  | Error m -> Alcotest.failf "worker: %s" m
  | Ok s ->
      check Alcotest.int "worker ran the other shard" (total - (hi - lo))
        s.Dist.Worker.trials_run;
      check Alcotest.string "worker stopped on the bye" "campaign complete"
        s.Dist.Worker.stop_reason);
  let tail = !worker_done -. !serve_done in
  check Alcotest.bool (Fmt.str "worker left %.3fs after serve returned" tail) true
    (tail < 0.3);
  let dir = Checkpoint.campaign_dir ~root spec in
  let path = Checkpoint.journal_path ~dir in
  check Alcotest.int "journal complete" total (Journal.count ~path);
  let ids = Hashtbl.create total in
  Journal.fold ~path ~init:() ~f:(fun () r -> Hashtbl.replace ids r.Journal.trial ());
  check Alcotest.int "every id exactly once" total (Hashtbl.length ids)

(* A lease-shaped pool call — a range minus the ids already journaled,
   on one domain, as a worker runs it — gives those ids' records of a
   full run, line for line but [wall_us], and one runner task per id. *)
let test_lease_runs_its_ids () =
  let spec =
    Spec.v ~name:"lease-ids" ~protocol:"herlihy" ~f:[ 1 ] ~n:[ 3 ] ~rates:[ 0.9 ]
      ~trials:40 ~seed:0xBADL ()
  in
  let lines ?ids () =
    let out = ref [] in
    ignore
      (Campaign.Pool.run_trials ~domains:1 ?ids
         ~on_record:(fun r ->
           out := (r.Journal.trial, Journal.to_line { r with Journal.wall_us = 0 }) :: !out)
         spec);
    List.rev !out
  in
  let full = lines () in
  let ranges = Dist.Worker.Protocol.ids_to_run ~lo:10 ~hi:30 ~done_ids:[ 12; 13; 29 ] in
  check Alcotest.(list (pair int int)) "the lease's ranges" [ (10, 12); (14, 29) ] ranges;
  let ids = List.init 2 (( + ) 10) @ List.init 15 (( + ) 14) in
  let before = runner_tasks () in
  let lease = lines ~ids:ranges () in
  check Alcotest.int "one runner task per id" (List.length ids) (runner_tasks () - before);
  check Alcotest.(list int) "the lease's ids, in order" ids (List.map fst lease);
  check Alcotest.(list string) "records as in the full run"
    (List.map (fun id -> List.assoc id full) ids)
    (List.map snd lease);
  List.iter
    (fun (what, lo, hi, done_ids, expected) ->
      check Alcotest.(list (pair int int)) what expected
        (Dist.Worker.Protocol.ids_to_run ~lo ~hi ~done_ids))
    [
      ("unsorted and repeated", 10, 30, [ 29; 13; 12; 29; 13 ], [ (10, 12); (14, 29) ]);
      ("outside the lease", 10, 30, [ 9; 30; 12; 45; -1 ], [ (10, 12); (13, 30) ]);
      ("at both ends", 10, 30, [ 10; 29; 11 ], [ (12, 29) ]);
      ("none done", 10, 30, [], [ (10, 30) ]);
      ("all done", 10, 13, [ 12; 10; 11 ], []);
      ("an empty lease", 10, 10, [ 10 ], []);
    ]

(* ---- the end of a campaign, against a scripted socket worker ---- *)

(* [serve] on a one-lease grid, with a raw client playing the worker
   from Transport and Codec frames: Hello, Request, one Result per trial
   of the lease, a wait until the journal file holds them all, then
   [tail] (which gets the lease's id and epoch) plays the rest. Returns
   serve's summary and the seconds serve ran past the last Result. *)
let serve_scripted ~name ~lease_timeout_s ~hb_interval_s tail =
  let root = tmp_root () in
  let sock = Filename.concat root "coord.sock" in
  let spec = Spec.v ~name ~protocol:"fig1" ~trials:8 () in
  let cfg =
    Dist.Coordinator.config ~lease_trials:(Grid.total_trials spec) ~lease_timeout_s
      ~hb_interval_s (Transport.Unix_sock sock)
  in
  let serve_result = ref (Error "never ran") and serve_done = ref 0.0 in
  let coordinator =
    Thread.create
      (fun () ->
        serve_result := Dist.Coordinator.serve ~root cfg spec;
        serve_done := Unix.gettimeofday ())
      ()
  in
  let rec await n =
    if not (Sys.file_exists sock) then
      if n = 0 then Alcotest.fail "coordinator never listened"
      else begin
        Thread.delay 0.01;
        await (n - 1)
      end
  in
  await 500;
  let raw =
    match Transport.connect (Transport.Unix_sock sock) with
    | Ok c -> c
    | Error e -> Alcotest.fail e
  in
  let send m =
    match Transport.send_msg raw m with Ok () -> () | Error e -> Alcotest.fail e
  in
  let recv () =
    match Transport.recv_msg raw with
    | `Msg m -> m
    | `Closed -> Alcotest.fail "scripted worker: closed"
    | `Error e -> Alcotest.fail e
  in
  send (Codec.Hello { version = Wire.version; name = "w-script"; domains = 1; last_epoch = 0 });
  (match recv () with
  | Codec.Welcome _ -> ()
  | m -> Alcotest.failf "expected welcome, got %a" Codec.pp m);
  send Codec.Request;
  let lease, epoch, lo, hi =
    match recv () with
    | Codec.Lease { lease; epoch; lo; hi; _ } -> (lease, epoch, lo, hi)
    | m -> Alcotest.failf "expected a lease, got %a" Codec.pp m
  in
  for t = lo to hi - 1 do
    send (Codec.Result (record_for spec t))
  done;
  let last_result = Unix.gettimeofday () in
  (* serve flushes its journal once per loop turn, so the Results reach
     the file before the worker sends anything more *)
  let journal = Checkpoint.journal_path ~dir:(Checkpoint.campaign_dir ~root spec) in
  let give_up = last_result +. 2.0 in
  while Journal.count ~path:journal < hi - lo && Unix.gettimeofday () < give_up do
    Thread.delay 0.01
  done;
  check Alcotest.int "the Results are on disk before the Complete" (hi - lo)
    (Journal.count ~path:journal);
  tail raw ~lease ~epoch;
  Thread.join coordinator;
  Transport.close raw;
  match !serve_result with
  | Error m -> Alcotest.failf "serve: %s" m
  | Ok summary -> (summary, !serve_done -. last_result)

let scripted_worker summary =
  match
    List.find_opt
      (fun w -> w.Dist.Core.v_name = "w-script")
      summary.Dist.Coordinator.workers
  with
  | Some w -> w
  | None -> Alcotest.fail "no stats for the scripted worker"

(* The finishing worker's flush beat follows its last Result: serve must
   read it (and the Complete after it) before returning, or the worker's
   last lease is missing from workers.json. *)
let test_serve_reads_flush_beat () =
  let marker =
    Json.Obj [ ("counters", Json.Obj [ ("test.flush_marker", Json.Int 7) ]) ]
  in
  let summary, _ =
    serve_scripted ~name:"dist-flush" ~lease_timeout_s:10.0 ~hb_interval_s:0.5
      (fun raw ~lease ~epoch ->
        Thread.delay 0.2;
        (* a coordinator that already left makes these sends fail; the
           checks below report it *)
        ignore
          (Transport.send_msg raw (Codec.Heartbeat { snapshot = Some marker; spans = [] }));
        ignore (Transport.send_msg raw (Codec.Complete { lease; epoch }));
        match Transport.recv_msg raw with
        | `Msg (Codec.Bye _) | `Closed | `Error _ -> ()
        | `Msg m -> Alcotest.failf "expected bye, got %a" Codec.pp m)
  in
  let w = scripted_worker summary in
  check Alcotest.(option string) "the flush beat's snapshot is in the summary"
    (Some (Json.to_string marker))
    (Option.map Json.to_string w.Dist.Core.v_telemetry);
  check Alcotest.int "the lease completed" 1 w.Dist.Core.v_completed;
  check Alcotest.int "no lease expired" 0 summary.Dist.Coordinator.leases_expired

(* A worker that goes silent after its last Result never sends its
   Complete: serve still returns, within about the lease timeout, and
   books the lease as expired. *)
let test_serve_silent_holder_expires () =
  let lease_timeout_s = 0.5 in
  let summary, waited =
    serve_scripted ~name:"dist-silent" ~lease_timeout_s ~hb_interval_s:0.2
      (fun _raw ~lease:_ ~epoch:_ -> ())
  in
  check Alcotest.bool (Fmt.str "serve waited about the lease timeout (%.3fs)" waited) true
    (waited >= 0.8 *. lease_timeout_s && waited < 5.0);
  check Alcotest.int "the lease expired" 1 summary.Dist.Coordinator.leases_expired;
  check Alcotest.int "booked to the silent worker" 1
    (scripted_worker summary).Dist.Core.v_expired

(* A lease reaching outside the Welcome's grid is a protocol error the
   worker stops on, not a range to clip. *)
let test_protocol_rejects_lease_outside_grid () =
  let spec = Spec.v ~name:"grid-bounds" ~protocol:"fig1" ~trials:8 () in
  let total = Grid.total_trials spec in
  let reply lo hi =
    Dist.Worker.Protocol.lease_reply spec
      (Codec.Lease { lease = 3; epoch = 1; lo; hi; done_ids = [] })
  in
  let granted (lo, hi) =
    match reply lo hi with Dist.Worker.Protocol.Granted _ -> true | _ -> false
  in
  let unexpected (lo, hi) =
    match reply lo hi with Dist.Worker.Protocol.Unexpected _ -> true | _ -> false
  in
  List.iter
    (fun r -> check Alcotest.bool (Fmt.str "[%d,%d) granted" (fst r) (snd r)) true (granted r))
    [ (0, total); (total - 1, total) ];
  List.iter
    (fun r ->
      check Alcotest.bool (Fmt.str "[%d,%d) rejected" (fst r) (snd r)) true (unexpected r))
    [ (0, total + 1); (total, total + 5); (-1, 4); (5, 4) ]

let suites =
  [
    ( "dist.wire",
      [
        Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
        Alcotest.test_case "byte at a time" `Quick test_wire_byte_at_a_time;
        Alcotest.test_case "truncated" `Quick test_wire_truncated;
        Alcotest.test_case "oversized, zero, negative" `Quick test_wire_oversized_and_zero;
        Alcotest.test_case "garbage fuzz" `Quick test_wire_fuzz;
        Alcotest.test_case "validation" `Quick test_wire_validation;
      ] );
    ( "dist.codec",
      [
        Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
        Alcotest.test_case "rejects garbage" `Quick test_codec_rejects_garbage;
        Alcotest.test_case "ignores an older Welcome's adaptive_deadline" `Quick
          test_codec_ignores_adaptive_deadline;
        Alcotest.test_case "rejects an unbuildable spec" `Quick
          test_codec_rejects_unbuildable_spec;
        Alcotest.test_case "endpoints" `Quick test_endpoint_parse;
        Alcotest.test_case "endpoint round-trip" `Quick test_endpoint_round_trip;
      ] );
    ( "dist.lease",
      [
        Alcotest.test_case "grant, expire, regrant" `Quick test_lease_grant_expire_regrant;
        Alcotest.test_case "complete and done" `Quick test_lease_complete_and_done;
        Alcotest.test_case "fail owner" `Quick test_lease_fail_owner;
        Alcotest.test_case "validation" `Quick test_lease_validation;
        Alcotest.test_case "worker rejects a lease outside the grid" `Quick
          test_protocol_rejects_lease_outside_grid;
        Alcotest.test_case "a lease runs its ids as a full run does" `Quick
          test_lease_runs_its_ids;
      ] );
    ( "dist.coordinator",
      [
        Alcotest.test_case "config validation" `Quick test_coordinator_config_validation;
        Alcotest.test_case "reconnect backoff schedule" `Quick
          test_reconnect_backoff_schedule;
        Alcotest.test_case "restart recovers a torn journal" `Quick
          test_restart_recovers_torn_journal;
        Alcotest.test_case "stale complete fenced, results deduped" `Quick
          test_stale_complete_fenced_results_deduped;
        Alcotest.test_case "event severities" `Quick test_classify_events;
        Alcotest.test_case "result of another trial's cell or seed dropped" `Quick
          test_result_of_another_trial_dropped;
        Alcotest.test_case "silent client dropped at the lease timeout" `Quick
          test_silent_client_dropped;
        Alcotest.test_case "heartbeat count is Heartbeat frames" `Quick test_heartbeat_count;
        Alcotest.test_case "exactly-once over a socket" `Quick test_serve_exactly_once;
        Alcotest.test_case "bye ends a worker's wait" `Quick test_bye_ends_wait;
        Alcotest.test_case "serve reads the flush beat" `Quick test_serve_reads_flush_beat;
        Alcotest.test_case "silent holder expires" `Quick test_serve_silent_holder_expires;
      ] );
    ( "dist.core",
      [
        Alcotest.test_case "heartbeat slots" `Quick test_core_heartbeat_slots;
        Alcotest.test_case "a worker's spans keep the ring's bound" `Quick
          test_core_bounds_worker_spans;
      ] );
    (* named for lib/supervise, where the heartbeat lived before Core
       took it over as per-slot stamps *)
    ( "supervise.heartbeat",
      [
        Alcotest.test_case "beats and ages" `Quick test_heartbeat_beats_and_ages;
        Alcotest.test_case "validation" `Quick test_heartbeat_validation;
      ] );
    ( "dist.transport",
      [
        Alcotest.test_case "recv_within: timeout" `Quick test_recv_within_timeout;
        Alcotest.test_case "recv_within: second frame from the stash" `Quick
          test_recv_within_stash;
        Alcotest.test_case "recv_within: split frame" `Quick test_recv_within_split_frame;
        Alcotest.test_case "recv_within: peer closed" `Quick test_recv_within_closed;
        Alcotest.test_case "pushed Results are written 64 at a time" `Quick
          test_push_writes_groups;
        Alcotest.test_case "a Complete writes the pending Results first" `Quick
          test_send_writes_pending_first;
        Alcotest.test_case "a heartbeat writes the pending Results first" `Quick
          test_heartbeat_writes_pending_first;
        Alcotest.test_case "a reconnect resends every record, then the Complete" `Quick
          test_worker_resends_lease;
      ] );
  ]
