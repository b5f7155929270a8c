(* The JSON codec's byte contract. Differential tests hold
   [Campaign.Json] to the reference codec in [Json_ref] (the bytes every
   journal and wire frame carried before the fast codec): equal printed
   bytes on generated trees and on a real campaign's records and every
   codec frame kind, equal parse results on printed text, its prefixes
   and single-byte mutations, and on those the very trees and error
   texts of the parser before it was rebuilt on a cursor. Golden digests
   pin netsim schedules and a local campaign journal across commits.
   Also the decoder's limits: integers outside the int range and nesting
   past the depth bound are errors. *)

module Campaign = Ffault_campaign
module Json = Campaign.Json
module Spec = Campaign.Spec
module Journal = Campaign.Journal
module Checkpoint = Campaign.Checkpoint
module Pool = Campaign.Pool
module Codec = Ffault_dist.Codec
module Wire = Ffault_dist.Wire
module Sim = Ffault_netsim.Sim
module Persistence = Ffault_recover.Persistence

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let rec to_ref : Json.t -> Json_ref.t = function
  | Json.Null -> Json_ref.Null
  | Json.Bool b -> Json_ref.Bool b
  | Json.Int i -> Json_ref.Int i
  | Json.Float f -> Json_ref.Float f
  | Json.Str s -> Json_ref.Str s
  | Json.List l -> Json_ref.List (List.map to_ref l)
  | Json.Obj fields -> Json_ref.Obj (List.map (fun (k, v) -> (k, to_ref v)) fields)

(* Structural equality with floats compared bit for bit, so -0.0 and 0.0
   differ and a parsed number must be the very same double. *)
let rec same_tree (a : Json.t) (b : Json_ref.t) =
  match (a, b) with
  | Json.Null, Json_ref.Null -> true
  | Json.Bool x, Json_ref.Bool y -> Bool.equal x y
  | Json.Int x, Json_ref.Int y -> Int.equal x y
  | Json.Float x, Json_ref.Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Json.Str x, Json_ref.Str y -> String.equal x y
  | Json.List xs, Json_ref.List ys ->
      List.compare_lengths xs ys = 0 && List.for_all2 same_tree xs ys
  | Json.Obj xs, Json_ref.Obj ys ->
      List.compare_lengths xs ys = 0
      && List.for_all2 (fun (k, v) (k', v') -> String.equal k k' && same_tree v v') xs ys
  | _ -> false

(* Both parsers accept with equal trees, or both reject; and the parser
   gives the tree, or the error text, of the tree parser it was before it
   was rebuilt on a cursor (kept in [Journal_ref]). *)
let parses_alike text =
  let parsed = Json.of_string text in
  (match (parsed, Journal_ref.Parse.of_string text) with
  | Ok a, Ok b -> same_tree a (to_ref b)
  | Error a, Error b -> String.equal a b
  | Ok _, Error _ | Error _, Ok _ -> false)
  &&
  match (parsed, Json_ref.of_string text) with
  | Ok a, Ok b -> same_tree a b
  | Error _, Error _ -> true
  | Ok _, Error _ | Error _, Ok _ -> false

(* ---- generators ---- *)

module Gen = QCheck.Gen

(* Every byte value, with the ones the escaper and the parser treat
   specially drawn often. *)
let byte =
  Gen.frequency
    [
      (3, Gen.map Char.chr (Gen.int_bound 255));
      ( 1,
        Gen.oneofl
          [ '"'; '\\'; '/'; '\n'; '\r'; '\t'; '\b'; '\012'; '\000'; '\x1f'; '\x7f'; '\x80'; '\xff';
            'u' ]
      );
      (2, Gen.printable);
    ]

let bytes_string = Gen.string_size ~gen:byte (Gen.int_bound 24)

let int_value =
  Gen.oneof
    [
      Gen.int;
      Gen.small_signed_int;
      Gen.oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0; -1; 1; 1 lsl 53; -(1 lsl 53) ];
    ]

let special_floats =
  [
    0.0;
    -0.0;
    Float.nan;
    Float.infinity;
    Float.neg_infinity;
    Float.min_float;
    Float.pred Float.min_float (* largest subnormal *);
    Float.succ 0.0 (* smallest subnormal *);
    -.Float.succ 0.0;
    Float.max_float;
    -.Float.max_float;
    Float.epsilon;
    1e15;
    -1e15;
    1e15 -. 1.0;
    1e15 +. 1.0;
    -.(1e15 -. 1.0);
    Float.pred 1e15;
    Float.succ 1e15;
    0x1p53;
    0x1p62;
    -0x1p62;
    0x1p63;
    1e19;
    1e300;
    0.1;
    1.0 /. 3.0;
    0.25;
    123456789012345.6;
  ]

(* Integral floats on both sides of 1e15, where the printer switches
   from %.1f to %.17g. *)
let integral_float =
  Gen.oneof
    [
      Gen.map Float.of_int (Gen.int_range (-2_000_000_000_000_000) 2_000_000_000_000_000);
      Gen.map Float.of_int Gen.small_signed_int;
      Gen.map2
        (fun m e -> Float.round (m *. (10.0 ** float_of_int e)))
        (Gen.float_range (-10.0) 10.0) (Gen.int_bound 25);
    ]

let float_value =
  Gen.frequency
    [
      (2, Gen.oneofl special_floats);
      (2, Gen.float);
      (1, Gen.map Int64.float_of_bits Gen.ui64);
      (2, integral_float);
      (1, Gen.float_range (-1000.0) 1000.0);
    ]

let tree =
  Gen.sized_size (Gen.int_bound 24)
  @@ Gen.fix (fun self size ->
         let leaf =
           Gen.frequency
             [
               (1, Gen.return Json.Null);
               (1, Gen.map (fun b -> Json.Bool b) Gen.bool);
               (3, Gen.map (fun i -> Json.Int i) int_value);
               (3, Gen.map (fun f -> Json.Float f) float_value);
               (3, Gen.map (fun s -> Json.Str s) bytes_string);
             ]
         in
         if size <= 0 then leaf
         else
           let sub = self (size / 3) in
           Gen.frequency
             [
               (2, leaf);
               (1, Gen.map (fun l -> Json.List l) (Gen.list_size (Gen.int_bound 5) sub));
               ( 1,
                 Gen.map
                   (fun l -> Json.Obj l)
                   (Gen.list_size (Gen.int_bound 5) (Gen.pair bytes_string sub)) );
             ])

let arb_tree = QCheck.make ~print:Json.to_string tree

(* ---- differential properties ---- *)

let prop_printer_matches_reference =
  QCheck.Test.make ~name:"printer matches reference bytes" ~count:2000 arb_tree (fun t ->
      String.equal (Json.to_string t) (Json_ref.to_string (to_ref t)))

(* [member] keeps [List.assoc_opt]'s answer, the first binding of a
   duplicated key included. *)
let prop_member_is_assoc =
  let key = Gen.oneofl [ ""; "a"; "b"; "trial"; "trial\000"; "\255" ] in
  QCheck.Test.make ~name:"member is the first binding" ~count:500
    (QCheck.make (Gen.pair key (Gen.list_size (Gen.int_bound 6) (Gen.pair key tree))))
    (fun (k, fields) ->
      Option.equal ( == ) (Json.member k (Json.Obj fields)) (List.assoc_opt k fields))

(* A seeded single-byte mutation: position (taken mod the length) and
   replacement byte. *)
let mutation = Gen.pair Gen.nat byte

let prop_parser_matches_reference =
  QCheck.Test.make ~name:"parser matches reference trees" ~count:300
    (QCheck.make
       ~print:(fun (t, _) -> Json_ref.to_string t)
       (Gen.pair (Gen.map to_ref tree) (Gen.list_size (Gen.int_bound 12) mutation)))
    (fun (t, mutations) ->
      let text = Json_ref.to_string t in
      let n = String.length text in
      let prefixes_ok = ref true in
      for i = 0 to n - 1 do
        if not (parses_alike (String.sub text 0 i)) then prefixes_ok := false
      done;
      parses_alike text && !prefixes_ok
      && List.for_all
           (fun (pos, c) ->
             let b = Bytes.of_string text in
             Bytes.set b (pos mod n) c;
             parses_alike (Bytes.to_string b))
           mutations)

(* Inputs the printer never emits: escapes it does not write, odd
   numbers, whitespace, malformed literals. Each, and every prefix of
   each, parses alike under both codecs. *)
let test_parser_edge_inputs () =
  let inputs =
    [
      {|"Aé€\u0000\u001f"|};
      {|"\u00_1"|};
      {|"\u_001"|};
      {|"\u12"|};
      {|"\uzzzz"|};
      {|"\/\b\f\n\r\t\"\\"|};
      {|"\q"|};
      {|"tail\|};
      {|"ok" |};
      " \t\r\n{ \"a\" : [ 1 , 2.5 , -0 , \"x\" ] , \"b\" : { } , \"c\" : [ ] } \n";
      "-";
      "1e";
      "1.5e+3";
      "-0";
      "-0.0";
      "00012";
      "1-2";
      "+1";
      "1E400";
      "-1e999";
      "99999999999999999999";
      "-99999999999999999999";
      "4611686018427387903";
      "4611686018427387904";
      "-4611686018427387904";
      "-4611686018427387905";
      "0.1e-400";
      "nul";
      "nulll";
      "trUe";
      "[1,]";
      "[,1]";
      "{\"a\":1,}";
      "{\"a\"1}";
      "{1:2}";
      "[[[[[[[[[[]]]]]]]]]]";
      "[1 2]";
      "\"a\" \"b\"";
      "";
      " ";
      "\255";
    ]
  in
  List.iter
    (fun text ->
      for i = 0 to String.length text do
        let s = String.sub text 0 i in
        if not (parses_alike s) then Alcotest.failf "codecs disagree on %S" s
      done)
    inputs

(* ---- a real campaign: records and frames ---- *)

(* herlihy (violations, witnesses, t = null), the naive-tas and rec-cas
   crash cells (crash fields) and fig3: every record field the journal
   can carry. *)
let corpus_specs =
  let crash ~name ~protocol ~n =
    Spec.v ~name ~protocol ~n ~crashes:[ 1; 2 ] ~crash_rates:[ 0.2; 0.4 ]
      ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
      ~trials:6 ~seed:0x15L ()
  in
  [
    Spec.v ~name:"herlihy" ~protocol:"herlihy" ~f:[ 1; 2 ] ~n:[ 2; 3 ] ~rates:[ 0.3; 0.9 ]
      ~trials:6 ~seed:0x15L ();
    crash ~name:"naive-tas" ~protocol:"naive-tas" ~n:[ 2 ];
    crash ~name:"rec-cas" ~protocol:"rec-cas" ~n:[ 2; 3 ];
    Spec.v ~name:"fig3" ~protocol:"fig3" ~f:[ 1; 2 ] ~t:[ Some 1 ] ~n:[ 3 ] ~rates:[ 0.3; 0.6 ]
      ~trials:6 ~seed:0x15L ();
  ]

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The journals of [corpus_specs], run on one domain (so record order
   is deterministic), concatenated. Computed once. *)
let corpus_journal =
  lazy
    (let root = Filename.temp_dir "ffault-json-test-" "" in
     String.concat ""
       (List.map
          (fun spec ->
            match Pool.run_dir ~domains:1 ~root spec with
            | Error m -> Alcotest.failf "corpus campaign %s: %s" spec.Spec.name m
            | Ok _ ->
                read_file
                  (Checkpoint.journal_path ~dir:(Filename.concat root spec.Spec.name)))
          corpus_specs))

let corpus_lines () =
  List.filter (fun l -> l <> "") (String.split_on_char '\n' (Lazy.force corpus_journal))

let test_corpus_byte_identical () =
  let lines = corpus_lines () in
  let records =
    List.map
      (fun line ->
        if not (parses_alike line) then Alcotest.failf "codecs disagree on %s" line;
        match Json.of_string line with
        | Error m -> Alcotest.failf "%s: %s" m line
        | Ok tree ->
            check Alcotest.string "reference prints the journaled bytes" line
              (Json_ref.to_string (to_ref tree));
            check Alcotest.string "codec prints the journaled bytes" line (Json.to_string tree);
            (match Journal.of_line line with
            | Error m -> Alcotest.failf "%s: %s" m line
            | Ok r ->
                check Alcotest.string "record re-encodes to its line" line (Journal.to_line r);
                r))
      lines
  in
  let has p = List.exists p records in
  check Alcotest.bool "a witness" true (has (fun r -> r.Journal.witness <> None));
  check Alcotest.bool "a violation" true (has (fun r -> r.Journal.violations <> []));
  check Alcotest.bool "t = null" true (has (fun r -> r.Journal.cell.Campaign.Grid.t = None));
  check Alcotest.bool "crash fields" true
    (has (fun r -> r.Journal.cell.Campaign.Grid.crashes > 0));
  (* one frame of each message kind, plus a Result carrying a real
     record with a witness *)
  let witnessed = List.find (fun r -> r.Journal.witness <> None) records in
  let frames = List.map Codec.to_frame (Codec.Result witnessed :: Test_dist.all_msgs) in
  let tags = List.sort_uniq Char.compare (List.map (fun f -> f.Wire.tag) frames) in
  check Alcotest.int "every message kind" 9 (List.length tags);
  List.iter
    (fun { Wire.tag; payload } ->
      if not (parses_alike payload) then Alcotest.failf "codecs disagree on %c %s" tag payload;
      match Json.of_string payload with
      | Error m -> Alcotest.failf "%c %s: %s" tag m payload
      | Ok tree ->
          check Alcotest.string (Fmt.str "frame %c" tag) payload
            (Json_ref.to_string (to_ref tree)))
    frames

(* ---- cross-commit pins ---- *)

let hex s = Digest.to_hex (Digest.string s)

(* Replace every ["wall_us":<digits>] with ["wall_us":0]: the one
   timing-dependent field of a record. *)
let zero_wall_us text =
  let key = "\"wall_us\":" in
  let k = String.length key and n = String.length text in
  let b = Buffer.create n in
  let rec go i =
    if i >= n then ()
    else if i + k <= n && String.sub text i k = key then begin
      Buffer.add_string b key;
      Buffer.add_char b '0';
      let j = ref (i + k) in
      while !j < n && text.[!j] >= '0' && text.[!j] <= '9' do
        incr j
      done;
      go !j
    end
    else begin
      Buffer.add_char b text.[i];
      go (i + 1)
    end
  in
  go 0;
  Buffer.contents b

let pin what ~expected actual =
  if not (String.equal expected actual) then
    Alcotest.failf
      "%s changed: digest %s, pinned %s. The same seed must give the same bytes on \
       every commit; re-pin only for an intended format change."
      what actual expected

let test_golden_netsim () =
  let cfg = Sim.config ~workers:3 ~trials:96 ~lease_trials:16 () in
  let r = Sim.run cfg ~seed:0xCAFE1L in
  check Alcotest.int "events" 498 r.Sim.events;
  pin "netsim journal_bytes" ~expected:"9d248cb14b4c0532fd8c396eddca9e4e"
    (hex r.Sim.journal_bytes);
  pin "netsim trace" ~expected:"afcb8c3bc3c5f32cf60634d17f3b65b8"
    (hex (String.concat "\n" r.Sim.trace))

(* Schedules 0..39 of the sweep root 7 at the [Sim.config] defaults:
   every schedule's trace, journal bytes, fired atoms and status-probe
   bodies. Between them they fire a partition, a worker crash, a
   coordinator crash and every frame directive, so each keyed stream of
   [Fault_plan] and [Search.schedule_seed] is pinned. *)
let test_golden_netsim_sweep () =
  let module Plan = Ffault_netsim.Fault_plan in
  let cfg = Sim.config () in
  let b = Buffer.create (1 lsl 20) in
  let fired = ref [] in
  for i = 0 to 39 do
    let r = Sim.run cfg ~seed:(Ffault_netsim.Search.schedule_seed ~root:7L i) in
    Buffer.add_string b (Fmt.str "schedule %d: %d events\n" i r.Sim.events);
    let line l =
      Buffer.add_string b l;
      Buffer.add_char b '\n'
    in
    List.iter line r.Sim.trace;
    Buffer.add_string b r.Sim.journal_bytes;
    List.iter (fun a -> line (Plan.atom_to_string a)) r.Sim.fired;
    List.iter
      (fun (ns, path, body) -> Buffer.add_string b (Fmt.str "%d %s %s\n" ns path body))
      r.Sim.status_probes;
    fired := r.Sim.fired @ !fired
  done;
  let has what p = check Alcotest.bool what true (List.exists p !fired) in
  has "a partition" (function Plan.Partition _ -> true | _ -> false);
  has "a worker crash" (function Plan.Crash _ -> true | _ -> false);
  has "a coordinator crash" (function Plan.CoordCrash _ -> true | _ -> false);
  has "a drop" (function Plan.Frame { d = Plan.Drop; _ } -> true | _ -> false);
  has "a dup" (function Plan.Frame { d = Plan.Dup; _ } -> true | _ -> false);
  has "a delay" (function Plan.Frame { d = Plan.Delay _; _ } -> true | _ -> false);
  has "a reorder" (function Plan.Frame { d = Plan.Reorder _; _ } -> true | _ -> false);
  pin "netsim schedules 0..39 of root 7" ~expected:"9f275d471aa939f27fc23375c9783ac0"
    (hex (Buffer.contents b))

let test_golden_campaign () =
  pin "local campaign journal" ~expected:"7ea6de07210a579478841d5d228db34d"
    (hex (zero_wall_us (Lazy.force corpus_journal)))

(* ---- decoder limits ---- *)

let out_of_range =
  [ "1e19"; "-1e19"; "1e20"; "1e300"; "99999999999999999999"; "-99999999999999999999" ]

let test_int_range () =
  let int_of text = Result.to_option (Json.of_string text) |> Fun.flip Option.bind Json.get_int in
  List.iter (fun text -> check Alcotest.(option int) text None (int_of text)) out_of_range;
  check Alcotest.(option int) "2^62 as a float" None (Json.get_int (Json.Float 0x1p62));
  check Alcotest.(option int) "-2^62 as a float" (Some min_int)
    (Json.get_int (Json.Float (-0x1p62)));
  check Alcotest.(option int) "2^62 - 512" (Some (max_int - 511))
    (Json.get_int (Json.Float (Float.pred 0x1p62)));
  check Alcotest.(option int) "3.0" (Some 3) (int_of "3.0");
  check Alcotest.(option int) "max_int literal" (Some max_int) (int_of (string_of_int max_int));
  check Alcotest.(option int) "min_int literal" (Some min_int) (int_of (string_of_int min_int));
  (* a journal line and the Result and Lease frames: an out-of-range
     trial id or lease bound is malformed, never trial 0 *)
  let line = Journal.to_line Test_dist.fixture_record in
  let lease =
    (Codec.to_frame
       (Codec.Lease { lease = 7; epoch = 2; lo = 100; hi = 200; done_ids = [ 101 ] }))
      .Wire.payload
  in
  let decode what ~ok text = function
    | Ok v when ok v -> ()
    | Ok _ -> Alcotest.failf "%s: %s decoded wrongly" what text
    | Error m -> Alcotest.failf "%s: %s rejected: %s" what text m
  in
  let rejects what text = function
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: %s accepted" what text
  in
  List.iter
    (fun big ->
      let l = Test_dist.replace ~sub:"\"trial\":17" ~by:("\"trial\":" ^ big) line in
      rejects "journal line" l (Journal.of_line l);
      rejects "result frame" l (Codec.of_frame { Wire.tag = 'R'; payload = l });
      let p = Test_dist.replace ~sub:"\"lo\":100" ~by:("\"lo\":" ^ big) lease in
      rejects "lease frame" p (Codec.of_frame { Wire.tag = 'l'; payload = p }))
    out_of_range;
  let l = Test_dist.replace ~sub:"\"trial\":17" ~by:"\"trial\":3.0" line in
  decode "journal line" l (Journal.of_line l) ~ok:(fun r -> r.Journal.trial = 3);
  decode "result frame" l (Codec.of_frame { Wire.tag = 'R'; payload = l }) ~ok:(function
    | Codec.Result r -> r.Journal.trial = 3
    | _ -> false);
  let p = Test_dist.replace ~sub:"\"lo\":100" ~by:"\"lo\":3.0" lease in
  decode "lease frame" p (Codec.of_frame { Wire.tag = 'l'; payload = p }) ~ok:(function
    | Codec.Lease { lo; _ } -> lo = 3
    | _ -> false)

let test_nesting_bound () =
  let arrays k = String.make k '[' ^ String.make k ']' in
  let objects k =
    String.concat "" (List.init k (fun _ -> "{\"a\":")) ^ "1" ^ String.make k '}'
  in
  let mixed k =
    String.concat "" (List.init k (fun i -> if i mod 2 = 0 then "[" else "{\"k\":"))
    ^ "null"
    ^ String.concat "" (List.init k (fun i -> if (k - 1 - i) mod 2 = 0 then "]" else "}"))
  in
  List.iter
    (fun (what, nest) ->
      (match Json.of_string (nest 64) with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "%s at depth 64 rejected: %s" what m);
      match Json.of_string (nest 65) with
      | Ok _ -> Alcotest.failf "%s at depth 65 accepted" what
      | Error m ->
          check Alcotest.bool (Fmt.str "%s: error names the limit (%s)" what m) true
            (String.starts_with ~prefix:"nesting deeper than 64" m))
    [ ("arrays", arrays); ("objects", objects); ("mixed", mixed) ];
  (* a frame of the Wire cap's worth of '[' from an unauthenticated peer:
     the coordinator decodes every frame, Hello or not *)
  let flood = String.make Wire.max_frame_bytes '[' in
  check Alcotest.bool "16 MiB of [ is an error" true (Result.is_error (Json.of_string flood));
  check Alcotest.bool "16 MiB of [ as a frame is an error" true
    (Result.is_error (Codec.of_frame { Wire.tag = 'h'; payload = flood }))

let suites =
  [
    ( "campaign.json-oracle",
      [
        qcheck prop_printer_matches_reference;
        qcheck prop_parser_matches_reference;
        qcheck prop_member_is_assoc;
        Alcotest.test_case "parser edge inputs" `Quick test_parser_edge_inputs;
        Alcotest.test_case "campaign corpus + frames" `Quick test_corpus_byte_identical;
      ] );
    ( "campaign.json-golden",
      [
        Alcotest.test_case "netsim schedule digest" `Quick test_golden_netsim;
        Alcotest.test_case "netsim sweep digest" `Quick test_golden_netsim_sweep;
        Alcotest.test_case "campaign journal digest" `Quick test_golden_campaign;
      ] );
    ( "campaign.json-limits",
      [
        Alcotest.test_case "ints stay in range" `Quick test_int_range;
        Alcotest.test_case "nesting bound" `Quick test_nesting_bound;
      ] );
  ]
