(* Tests for the static-analysis pass: every rule firing and not firing,
   policy scoping, suppression handling and both reporters. Parsetree
   rules are driven by inline sources pushed through
   [Driver.lint_impl_source]; typed rules by the compiled corpus in
   test/lint_fixtures, whose cmts dune builds next to this binary. The
   filename a source is linted under picks the policy scope. *)

module Lint = Ffault_lint
module Finding = Lint.Finding
module Driver = Lint.Driver
module Policy = Lint.Policy
module Report = Lint.Report
module Cmt_loader = Lint.Cmt_loader
module Typed_rules = Lint.Typed_rules
module Json = Ffault_campaign.Json

let check = Alcotest.check

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let lint ~file src = Driver.lint_impl_source ~policy:Policy.default ~file src

let rules_of (o : Driver.outcome) =
  List.map (fun (f : Finding.t) -> f.Finding.rule) o.Driver.findings

let count_rule rule o = List.length (List.filter (( = ) rule) (rules_of o))

let tmp_root =
  let n = ref 0 in
  fun () ->
    incr n;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Fmt.str "ffault-lint-test-%d-%d" (Unix.getpid ()) !n)
    in
    Ffault_campaign.Checkpoint.mkdir_p dir;
    dir

let write_file path content =
  Ffault_campaign.Checkpoint.mkdir_p (Filename.dirname path);
  Out_channel.with_open_text path (fun oc -> output_string oc content)

(* ---- the compiled fixture corpus ----

   test/lint_fixtures is compiled as a library the test binary depends
   on, so dune guarantees fresh cmts under the test cwd
   (_build/default/test). A fixture is linted under a fake path, because
   policy scoping keys on the reported file. *)

let fixture_src name = "lint_fixtures/" ^ name ^ ".ml"

let fixture_cmt name =
  match Cmt_loader.for_source (Cmt_loader.create ~build_dir:"." ()) (fixture_src name) with
  | Cmt_loader.Typed cmt -> cmt
  | status ->
      Alcotest.fail
        (Option.value
           ~default:(Fmt.str "fixture cmt unusable for %s" name)
           (Cmt_loader.describe ~build_dir:"." status))

let read_fixture name =
  In_channel.with_open_text (fixture_src name) In_channel.input_all

let typed_findings ~file name = Typed_rules.check ~file (fixture_cmt name)

(* Both passes over a fixture, as the driver runs them on a real file. *)
let lint_fixture ~file name =
  Driver.lint_impl_source ~policy:Policy.default ~typed:(typed_findings ~file name) ~file
    (read_fixture name)

let count_typed rule fs =
  List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) fs)

(* ---- the identifier corpus ----

   Every identifier form the identifier rules match, and the rule it is
   reported under ([None]: a negative control). Each entry is the text
   after [let _ = ] on its own line of lint_fixtures/ident_corpus.ml. *)

let sockets =
  [ "Unix.socket"; "Unix.bind"; "Unix.listen"; "Unix.accept"; "Unix.connect";
    "Unix.select"; "Unix.read"; "Unix.write"; "Unix.write_substring"; "Unix.single_write";
    "Unix.sendto"; "Unix.recvfrom" ]

let corpus =
  List.map (fun use -> (use, Some "raw-atomic"))
    [ "Atomic.compare_and_set"; "Atomic.exchange"; "Atomic.set"; "Atomic.fetch_and_add";
      "Atomic.incr"; "Atomic.decr"; "Stdlib.Atomic.set" ]
  @ List.map (fun use -> (use, Some "nondeterminism"))
      [ "Sys.time"; "Unix.gettimeofday"; "Unix.time"; "Hashtbl.randomize";
        "Random.self_init"; "Random.int"; "Random.State.make";
        "Hashtbl.create ~random:true 8" ]
  @ List.map (fun use -> (use, Some "io-in-lib"))
      [ "print_string"; "print_bytes"; "print_int"; "print_char"; "print_float";
        "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes"; "prerr_int";
        "prerr_char"; "prerr_float"; "prerr_endline"; "prerr_newline"; "exit";
        "Printf.printf"; "Printf.eprintf"; "Format.printf"; "Format.eprintf";
        "Format.print_string"; "Format.print_newline"; "Fmt.pr"; "Fmt.epr" ]
  @ List.map (fun use -> (use, Some "io-in-lib")) sockets
  @ List.map (fun use -> (use, Some "obj-magic")) [ "Obj.magic"; "Obj.repr" ]
  @ List.map (fun use -> (use, None))
      [ "Atomic.get"; "Atomic.make"; "Fmt.pf"; "Hashtbl.create 8";
        "Ffault_prng.Splitmix.next_int" ]

let is_socket use = List.mem use sockets
let not_socket use = not (is_socket use)

(* (line, use) for every [let _ = use] line of the corpus *)
let corpus_uses =
  lazy
    (String.split_on_char '\n' (read_fixture "ident_corpus")
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter_map (fun (i, l) ->
           let prefix = "let _ = " in
           if String.starts_with ~prefix l then
             let n = String.length prefix in
             Some (i, String.sub l n (String.length l - n))
           else None))

let use_at line =
  match List.assoc_opt line (Lazy.force corpus_uses) with
  | Some use -> use
  | None -> Fmt.str "line %d" line

let ident_rules = [ "raw-atomic"; "nondeterminism"; "io-in-lib"; "obj-magic" ]

(* (use, rule) for each identifier-rule finding: the use is the corpus
   line the finding sits on, so a finding at the wrong line shows up as
   the wrong use *)
let ident_hits ?(rules = ident_rules) ?(keep = fun _ -> true) (o : Driver.outcome) =
  List.filter_map
    (fun (f : Finding.t) ->
      let use = use_at f.Finding.line in
      if List.mem f.Finding.rule rules && keep use then Some (use, f.Finding.rule)
      else None)
    o.Driver.findings
  |> List.sort compare

let expected ?(rules = ident_rules) ?(keep = fun _ -> true) () =
  List.filter_map
    (fun (use, rule) ->
      match rule with
      | Some r when List.mem r rules && keep use -> Some (use, r)
      | _ -> None)
    corpus
  |> List.sort compare

let hits = Alcotest.(list (pair string string))
let corpus_at file = lint_fixture ~file "ident_corpus"

let test_ident_corpus () =
  check
    Alcotest.(list string)
    "the corpus holds exactly the table's uses"
    (List.sort compare (List.map fst corpus))
    (List.sort compare (List.map snd (Lazy.force corpus_uses)));
  (* every identifier rule is active in lib/sim: each use is reported
     under its rule, at its line and column, and no control is *)
  let o = corpus_at "lib/sim/ident_corpus.ml" in
  check hits "one finding per use, none for the controls" (expected ()) (ident_hits o);
  List.iter
    (fun (f : Finding.t) ->
      if List.mem f.Finding.rule ident_rules then
        check Alcotest.int (Fmt.str "column of %s" (use_at f.Finding.line)) 8 f.Finding.col)
    o.Driver.findings

(* ---- raw-atomic ---- *)

let test_raw_atomic_fires () =
  let o = corpus_at "lib/consensus/ident_corpus.ml" in
  check hits "every mutator, Stdlib.-qualified too"
    (expected ~rules:[ "raw-atomic" ] ())
    (ident_hits ~rules:[ "raw-atomic" ] o);
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.rule = "raw-atomic" then
        check Alcotest.string "severity" "error"
          (Finding.severity_to_string f.Finding.severity))
    o.Driver.findings

let test_raw_atomic_spared () =
  (* the substrate itself is allowlisted… *)
  check Alcotest.int "runtime allowlisted" 0
    (count_rule "raw-atomic" (corpus_at "lib/runtime/ident_corpus.ml"));
  (* …and reads / allocation are not mutations *)
  let found = ident_hits (corpus_at "lib/consensus/ident_corpus.ml") in
  List.iter
    (fun use ->
      check Alcotest.bool (Fmt.str "%s fine" use) false (List.mem_assoc use found))
    [ "Atomic.get"; "Atomic.make" ]

(* ---- nondeterminism ---- *)

let test_nondeterminism_fires () =
  check hits "clocks, Random, randomized hashing"
    (expected ~rules:[ "nondeterminism" ] ())
    (ident_hits ~rules:[ "nondeterminism" ] (corpus_at "lib/sim/ident_corpus.ml"));
  (* the deterministic dirs include the network simulation *)
  check hits "active in lib/netsim"
    (expected ~rules:[ "nondeterminism" ] ())
    (ident_hits ~rules:[ "nondeterminism" ] (corpus_at "lib/netsim/ident_corpus.ml"))

let test_nondeterminism_spared () =
  (* out of the deterministic scope: campaign orchestration may read the clock *)
  check Alcotest.int "campaign out of scope" 0
    (count_rule "nondeterminism" (corpus_at "lib/campaign/ident_corpus.ml"));
  (* the repo's seeded PRNG is the sanctioned source, and a plain
     Hashtbl.create (its ?random omitted) is deterministic *)
  let found = ident_hits (corpus_at "lib/sim/ident_corpus.ml") in
  List.iter
    (fun use ->
      check Alcotest.bool (Fmt.str "%s fine" use) false (List.mem_assoc use found))
    [ "Ffault_prng.Splitmix.next_int"; "Hashtbl.create 8" ]

(* ---- toplevel-mutable ---- *)

let test_toplevel_mutable_fires () =
  let o =
    lint ~file:"lib/verify/fixture.ml"
      "let cache = Hashtbl.create 8\n\
       let flag = ref false\n\
       let slots = Array.init 4 (fun i -> i)\n"
  in
  check Alcotest.int "three findings" 3 (count_rule "toplevel-mutable" o)

let test_toplevel_mutable_spared () =
  (* per-call allocation and delayed state are fine *)
  let o =
    lint ~file:"lib/verify/fixture.ml"
      "let mk () = Hashtbl.create 8\nlet delayed = lazy (ref 0)\n"
  in
  check Alcotest.int "functions and lazy fine" 0 (count_rule "toplevel-mutable" o);
  (* telemetry's process-wide registry is allowlisted *)
  let o = lint ~file:"lib/telemetry/fixture.ml" "let registry = Hashtbl.create 64\n" in
  check Alcotest.int "telemetry allowlisted" 0 (count_rule "toplevel-mutable" o)

(* ---- io-in-lib ---- *)

let test_io_in_lib_fires () =
  check hits "terminal IO and exit"
    (expected ~rules:[ "io-in-lib" ] ~keep:not_socket ())
    (ident_hits ~rules:[ "io-in-lib" ] ~keep:not_socket
       (corpus_at "lib/objects/ident_corpus.ml"))

let test_io_in_lib_spared () =
  (* printing through a caller-supplied formatter is the sanctioned idiom *)
  check Alcotest.bool "Fmt.pf fine" false
    (List.mem_assoc "Fmt.pf" (ident_hits (corpus_at "lib/objects/ident_corpus.ml")));
  check Alcotest.int "telemetry allowlisted" 0
    (count_rule "io-in-lib" (corpus_at "lib/telemetry/ident_corpus.ml"))

let test_io_in_lib_sockets () =
  let sockets = expected ~rules:[ "io-in-lib" ] ~keep:is_socket () in
  let socket_hits file =
    ident_hits ~rules:[ "io-in-lib" ] ~keep:is_socket (corpus_at file)
  in
  (* socket syscalls are transport work: flagged anywhere in lib... *)
  check hits "every socket call" sockets (socket_hits "lib/campaign/ident_corpus.ml");
  (* ...except the dist driver layer, allowlisted by file *)
  check Alcotest.int "http driver allowlisted" 0
    (count_rule "io-in-lib" (corpus_at "lib/dist/http.ml"));
  check Alcotest.int "transport driver allowlisted" 0
    (count_rule "io-in-lib" (corpus_at "lib/dist/transport.ml"));
  (* the pure responder stays covered: a socket call in status.ml fails *)
  check hits "status must stay pure" sockets (socket_hits "lib/dist/status.ml")

(* ---- catch-all ---- *)

let test_catch_all_fires () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f g = try g () with _ -> None\n\
       let h g = match g () with exception _ -> 0 | n -> n\n"
  in
  check Alcotest.int "try and match-exception" 2 (count_rule "catch-all" o)

let test_catch_all_spared () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f g = try g () with Not_found -> None\n\
       let h g = try g () with e -> raise e\n"
  in
  check Alcotest.int "specific and re-raising fine" 0 (count_rule "catch-all" o)

(* ---- effect-discipline ---- *)

let test_effect_discipline_fires () =
  (* try_with has no retc/exnc: a deciding or crashing body escapes the
     scheduler's bookkeeping *)
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "let f body = Effect.Deep.try_with body () { Effect.Deep.effc = (fun _ -> None) }\n"
  in
  check Alcotest.int "try_with flagged" 1 (count_rule "effect-discipline" o);
  (* a full handler whose exnc merely re-raises drops the crash half *)
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "open Effect.Deep\n\
       let f body st =\n\
       \  match_with body ()\n\
       \    { retc = (fun v -> st := Some v); exnc = raise; effc = (fun _ -> None) }\n"
  in
  check Alcotest.int "re-raising exnc flagged" 1 (count_rule "effect-discipline" o)

let test_effect_discipline_spared () =
  (* the full Step/Decide protocol: every exit lands in a status *)
  let o =
    lint ~file:"lib/sim/fixture.ml"
      "open Effect.Deep\n\
       let f body st =\n\
       \  match_with body ()\n\
       \    {\n\
       \      retc = (fun v -> st := `Done v);\n\
       \      exnc = (fun e -> st := `Failed e);\n\
       \      effc = (fun _ -> None);\n\
       \    }\n"
  in
  check Alcotest.int "full handler fine" 0 (count_rule "effect-discipline" o);
  (* out of scope: effects outside the simulator are not its protocol *)
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f body = Effect.Deep.try_with body () { Effect.Deep.effc = (fun _ -> None) }\n"
  in
  check Alcotest.int "out of scope" 0 (count_rule "effect-discipline" o)

(* ---- obj-magic ---- *)

let test_obj_magic_fires () =
  check hits "every Obj value"
    (expected ~rules:[ "obj-magic" ] ())
    (ident_hits ~rules:[ "obj-magic" ] (corpus_at "lib/fault/ident_corpus.ml"))

let test_obj_magic_spared () =
  (* out of scope: tests may poke representations *)
  check Alcotest.int "test tree out of scope" 0
    (count_rule "obj-magic" (corpus_at "test/ident_corpus.ml"))

(* ---- mli-required ---- *)

let test_mli_required () =
  let root = tmp_root () in
  write_file (Filename.concat root "lib/foo/bare.ml") "let x = 1\n";
  write_file (Filename.concat root "lib/foo/covered.ml") "let y = 2\n";
  write_file (Filename.concat root "lib/foo/covered.mli") "val y : int\n";
  let r = Driver.run ~policy:Policy.default [ root ] in
  let missing =
    List.filter (fun (f : Finding.t) -> f.Finding.rule = "mli-required") r.Driver.findings
  in
  check Alcotest.int "exactly the bare module" 1 (List.length missing);
  check Alcotest.bool "names bare.ml" true
    (Filename.basename (List.hd missing).Finding.file = "bare.ml")

(* ---- parse errors ---- *)

let test_parse_error () =
  let o = lint ~file:"lib/sim/fixture.ml" "let let = 3\n" in
  check Alcotest.int "one parse-error" 1 (count_rule "parse-error" o)

(* ---- suppressions ---- *)

let test_suppress_file_level () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "[@@@ffault.lint.allow \"catch-all\", \"fixture: exercising the substrate\"]\n\
       let f g = try g () with _ -> None\n"
  in
  check Alcotest.int "no findings" 0 (List.length o.Driver.findings);
  check Alcotest.int "one suppressed" 1 (List.length o.Driver.suppressed);
  let _, s = List.hd o.Driver.suppressed in
  check Alcotest.string "justification kept" "fixture: exercising the substrate"
    s.Lint.Suppress.justification

let test_suppress_binding_scoped () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "let f g = try g () with _ -> 0 [@@ffault.lint.allow \"catch-all\", \"first\"]\n\
       let h g = try g () with _ -> 0\n"
  in
  check Alcotest.int "second still fires" 1 (count_rule "catch-all" o);
  check Alcotest.int "first suppressed" 1 (List.length o.Driver.suppressed);
  let f = List.hd o.Driver.findings in
  check Alcotest.int "surviving one is line 2" 2 f.Finding.line

let test_suppress_missing_justification () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "[@@@ffault.lint.allow \"catch-all\"]\nlet f g = try g () with _ -> None\n"
  in
  (* the malformed suppression is itself a finding, and suppresses nothing *)
  check Alcotest.int "suppression finding" 1 (count_rule "suppression" o);
  check Alcotest.int "catch-all still fires" 1 (count_rule "catch-all" o)

let test_suppress_unknown_rule () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"no-such-rule\", \"why\"]\nlet x = 1\n"
  in
  check Alcotest.int "suppression finding" 1 (count_rule "suppression" o)

let test_suppress_meta_rule_rejected () =
  let o =
    lint ~file:"lib/consensus/fixture.ml"
      "[@@@ffault.lint.allow \"parse-error\", \"never\"]\nlet x = 1\n"
  in
  check Alcotest.int "meta rules not suppressible" 1 (count_rule "suppression" o)

let test_suppress_blank_justification () =
  let o =
    lint ~file:"lib/campaign/fixture.ml"
      "[@@@ffault.lint.allow \"catch-all\", \"  \"]\nlet f g = try g () with _ -> None\n"
  in
  check Alcotest.int "blank justification rejected" 1 (count_rule "suppression" o)

(* ---- policy ---- *)

let test_policy_normalize () =
  check Alcotest.string "temp prefix stripped" "lib/sim/a.ml"
    (Policy.normalize "/tmp/scratch/lib/sim/a.ml");
  check Alcotest.string "dot-segments dropped" "lib/sim/a.ml"
    (Policy.normalize "./lib/sim/a.ml");
  check Alcotest.bool "component-wise prefix" true
    (Policy.has_prefix ~prefix:"lib/sim" "lib/sim/engine.ml");
  check Alcotest.bool "no substring matches" false
    (Policy.has_prefix ~prefix:"lib/sim" "lib/simulator.ml")

let test_policy_scoping () =
  let p = Policy.default in
  check Alcotest.bool "raw-atomic active in consensus" true
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/consensus/protocol.ml");
  check Alcotest.bool "raw-atomic allowlisted in runtime" false
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/runtime/faulty_cas.ml");
  check Alcotest.bool "nondeterminism inactive in campaign" false
    (Policy.applies p ~rule:"nondeterminism" ~file:"lib/campaign/pool.ml");
  check Alcotest.bool "live.ml file-precise allow" false
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/campaign/live.ml");
  check Alcotest.bool "pool.ml has no allow" true
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/campaign/pool.ml");
  check Alcotest.bool "campaign otherwise checked" true
    (Policy.applies p ~rule:"raw-atomic" ~file:"lib/campaign/journal.ml")

(* ---- rules filter ---- *)

let test_rules_filter () =
  let root = tmp_root () in
  write_file
    (Filename.concat root "lib/fault/mixed.ml")
    "let cache = Hashtbl.create 8\nlet f g = try g () with _ -> None\n";
  write_file
    (Filename.concat root "lib/fault/mixed.mli")
    "val f : (unit -> 'a) -> 'a option\n";
  let r = Driver.run ~rules:[ "catch-all" ] ~policy:Policy.default [ root ] in
  (* meta rules pass through: this tree has no cmts, so cmt-missing
     is reported too *)
  let rules =
    List.filter_map
      (fun (f : Finding.t) ->
        if Lint.Rule.is_meta f.Finding.rule then None else Some f.Finding.rule)
      r.Driver.findings
  in
  check (Alcotest.list Alcotest.string) "only catch-all" [ "catch-all" ] rules

let test_collect_skips_build_dirs () =
  let root = tmp_root () in
  write_file (Filename.concat root "lib/a.ml") "let x = 1\n";
  write_file (Filename.concat root "_build/lib/b.ml") "let y = 2\n";
  let files = Driver.collect_files [ root ] in
  check Alcotest.int "only the real source" 1 (List.length files)

(* ---- reporters ---- *)

let finding ~rule ~file ~line =
  Finding.v ~rule ~severity:Finding.Error ~file ~line ~col:0 "fixture"

let report_fixture () =
  {
    Driver.files = 2;
    typed_files = 1;
    findings =
      [ finding ~rule:"catch-all" ~file:"lib/a.ml" ~line:3;
        finding ~rule:"obj-magic" ~file:"lib/b.ml" ~line:7 ];
    suppressed = [];
  }

let test_report_exit_codes () =
  check Alcotest.int "a finding fails" 1 (Report.exit_code (report_fixture ()));
  let clean = { Driver.files = 1; typed_files = 1; findings = []; suppressed = [] } in
  check Alcotest.int "clean passes" 0 (Report.exit_code clean);
  let f = finding ~rule:"obj-magic" ~file:"lib/a.ml" ~line:3 in
  let s =
    {
      Lint.Suppress.rule = "obj-magic";
      justification = "audited";
      scope = Lint.Suppress.File;
      file = "lib/a.ml";
      line = 1;
    }
  in
  let all_suppressed = { clean with suppressed = [ (f, s) ] } in
  check Alcotest.int "suppressed does not fail" 0 (Report.exit_code all_suppressed)

let test_report_text () =
  let text = Report.to_text (report_fixture ()) in
  check Alcotest.bool "grep-able location" true
    (contains ~sub:"lib/a.ml:3:0: error catch-all" text);
  check Alcotest.bool "summary line" true (contains ~sub:"2 files checked" text);
  check Alcotest.bool "typed count in summary" true (contains ~sub:"(1 typed)" text);
  check Alcotest.bool "counts by rule" true
    (contains ~sub:"findings by rule: catch-all=1, obj-magic=1" text)

let test_report_json () =
  let json = Report.to_json (report_fixture ()) in
  match Json.of_string (Json.to_string json) with
  | Error m -> Alcotest.fail m
  | Ok j ->
      let int key j = Option.get (Option.bind (Json.member key j) Json.get_int) in
      check Alcotest.int "version" 2 (int "version" j);
      check Alcotest.int "typed_files" 1 (int "typed_files" j);
      let findings = Option.get (Option.bind (Json.member "findings" j) Json.get_list) in
      check Alcotest.int "findings listed" 2 (List.length findings);
      List.iter
        (fun key ->
          check Alcotest.bool (Fmt.str "finding has %s" key) true
            (Json.member key (List.hd findings) <> None))
        [ "rule"; "layer"; "severity"; "file"; "line"; "col"; "message" ];
      (* each finding names the one pass that produced its rule *)
      check
        Alcotest.(list string)
        "findings carry their layer" [ "ast"; "typed" ]
        (List.map
           (fun f -> Option.get (Option.bind (Json.member "layer" f) Json.get_str))
           findings);
      let summary = Option.get (Json.member "summary" j) in
      check Alcotest.int "summary.findings" 2 (int "findings" summary);
      check Alcotest.int "summary.suppressed" 0 (int "suppressed" summary);
      check Alcotest.int "by_rule.obj-magic" 1
        (int "obj-magic" (Option.get (Json.member "by_rule" summary)))

(* ---- the lint on this repo's own invariants ---- *)

let test_rule_registry () =
  check Alcotest.int "ten substantive rules" 10 (List.length Lint.Rule.substantive);
  List.iter
    (fun name ->
      check Alcotest.bool (Fmt.str "%s registered" name) true (Lint.Rule.find name <> None))
    [ "raw-atomic"; "nondeterminism"; "toplevel-mutable"; "io-in-lib"; "catch-all";
      "mli-required"; "obj-magic"; "effect-discipline"; "poly-compare-abstract";
      "domain-unsafe-capture" ];
  check Alcotest.bool "parse-error is meta" true (Lint.Rule.is_meta "parse-error");
  check Alcotest.bool "cmt-missing is meta" true (Lint.Rule.is_meta "cmt-missing");
  check Alcotest.bool "raw-atomic is not" false (Lint.Rule.is_meta "raw-atomic")

let test_rule_metadata () =
  (* the metadata behind --explain: every rule carries it *)
  List.iter
    (fun (r : Lint.Rule.t) ->
      check Alcotest.bool (Fmt.str "%s has a rationale" r.Lint.Rule.name) true
        (String.length r.Lint.Rule.rationale > 0);
      check Alcotest.bool (Fmt.str "%s has an example" r.Lint.Rule.name) true
        (String.length r.Lint.Rule.example > 0))
    Lint.Rule.all;
  (* each rule lives in exactly one pass *)
  List.iter
    (fun (layer, rules) ->
      List.iter
        (fun rule ->
          check Alcotest.string (Fmt.str "%s is %s-layer" rule layer) layer
            (Lint.Rule.layer_to_string (Lint.Rule.layer rule)))
        rules)
    [
      ( "typed",
        [ "raw-atomic"; "nondeterminism"; "io-in-lib"; "obj-magic"; "poly-compare-abstract";
          "domain-unsafe-capture" ] );
      ("ast", [ "toplevel-mutable"; "catch-all"; "effect-discipline" ]);
      ("fs", [ "mli-required" ]);
    ]

(* ---- typed pass: the planted evasions ----

   Each fixture hides the identifier or type it resolves to behind an
   alias, an open, eta-reduction or a named closure; the typed pass
   still reports it under the rule the resolved identity belongs to. *)

let test_evasion_alias () =
  let fs = typed_findings ~file:"lib/consensus/evade_alias.ml" "evade_alias" in
  check Alcotest.int "typed catches the aliased Atomic.set" 1
    (count_typed "raw-atomic" fs);
  check Alcotest.bool "message names the resolved identity" true
    (contains ~sub:"Atomic.set" (List.hd fs).Finding.message)

let test_evasion_open () =
  check Alcotest.int "typed catches the bare Random.int" 1
    (count_rule "nondeterminism" (lint_fixture ~file:"lib/sim/evade_open.ml" "evade_open"));
  (* the rule's policy applies as to any finding: nondeterminism is not
     active outside the deterministic dirs *)
  check Alcotest.int "out of the rule's scope" 0
    (count_rule "nondeterminism"
       (lint_fixture ~file:"lib/campaign/evade_open.ml" "evade_open"))

let test_evasion_eta () =
  let fs = typed_findings ~file:"lib/consensus/evade_eta.ml" "evade_eta" in
  check Alcotest.int "eta-reduced + partial application both caught" 2
    (count_typed "raw-atomic" fs)

let test_evasion_obj_alias () =
  let fs = typed_findings ~file:"lib/fault/evade_obj_alias.ml" "evade_obj_alias" in
  check Alcotest.int "O.magic is Obj.magic" 1 (count_typed "obj-magic" fs);
  check Alcotest.bool "message names the resolved identity" true
    (contains ~sub:"Obj.magic" (List.hd fs).Finding.message)

let test_poly_compare_fixture () =
  let fs = typed_findings ~file:"lib/hoare/poly_compare.ml" "poly_compare" in
  (* direct =, aliased compare, = at Value.t list, List.mem,
     Hashtbl.hash, = at Op.t — and NOT the int-typed negative control *)
  check Alcotest.int "six instantiations at semantic types" 6
    (count_typed "poly-compare-abstract" fs);
  let hits =
    List.filter (fun (f : Finding.t) -> f.Finding.rule = "poly-compare-abstract") fs
  in
  check Alcotest.bool "message points at the semantic API" true
    (contains ~sub:"Value.equal" (List.hd hits).Finding.message);
  (* the grown semantic set: the Op.t instantiation is its own finding
     with its own suggested API *)
  check Alcotest.bool "Op.t caught with its own API" true
    (List.exists
       (fun (f : Finding.t) -> contains ~sub:"Op.equal" f.Finding.message)
       hits)

let test_domain_capture_fixture () =
  let fs = typed_findings ~file:"lib/campaign/domain_capture.ml" "domain_capture" in
  let hits = List.filter (fun (f : Finding.t) -> f.Finding.rule = "domain-unsafe-capture") fs in
  (* ref, mutable field, array cell — and NOT the closure-local ref *)
  check Alcotest.int "three captured mutations" 3 (List.length hits);
  List.iter
    (fun (f : Finding.t) ->
      check Alcotest.string "warning outside lib/sim" "warning"
        (Finding.severity_to_string f.Finding.severity))
    hits;
  let fs = typed_findings ~file:"lib/sim/domain_capture.ml" "domain_capture" in
  List.iter
    (fun (f : Finding.t) ->
      check Alcotest.string "error under lib/sim" "error"
        (Finding.severity_to_string f.Finding.severity))
    (List.filter (fun (f : Finding.t) -> f.Finding.rule = "domain-unsafe-capture") fs)

let test_named_closure_fixture () =
  let fs =
    typed_findings ~file:"lib/campaign/evade_named_closure.ml" "evade_named_closure"
  in
  let hits =
    List.filter (fun (f : Finding.t) -> f.Finding.rule = "domain-unsafe-capture") fs
  in
  (* the named ref mutation and the named field mutation — and NOT the
     named closure that only touches its own local ref *)
  check Alcotest.int "named closures followed to their bindings" 2 (List.length hits);
  check Alcotest.bool "message names the captured target" true
    (List.exists (fun (f : Finding.t) -> contains ~sub:"counter" f.Finding.message) hits)

let test_typed_findings_suppressible () =
  (* typed findings merge before suppression, so the one
     [@@@ffault.lint.allow] machinery covers both passes *)
  let file = "lib/consensus/evade_alias.ml" in
  let src =
    "[@@@ffault.lint.allow \"raw-atomic\", \"audited escape\"]\n"
    ^ read_fixture "evade_alias"
  in
  let typed = typed_findings ~file "evade_alias" in
  let o = Driver.lint_impl_source ~policy:Policy.default ~typed ~file src in
  check Alcotest.int "typed finding suppressed" 0 (count_rule "raw-atomic" o);
  check Alcotest.int "suppression recorded" 1 (List.length o.Driver.suppressed)

(* ---- cmt loader: freshness ---- *)

let copy_binary src dst =
  Ffault_campaign.Checkpoint.mkdir_p (Filename.dirname dst);
  let bytes = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc bytes)

let fixture_cmt_path name =
  Fmt.str "lint_fixtures/.ffault_lint_fixtures.objs/byte/ffault_lint_fixtures__%s.cmt"
    (String.capitalize_ascii name)

(* a tmp repo layout whose lib/sim/evade_alias.ml matches the built
   fixture cmt byte-for-byte *)
let staleness_root () =
  let root = tmp_root () in
  let src = Filename.concat root "lib/sim/evade_alias.ml" in
  write_file src (read_fixture "evade_alias");
  write_file (Filename.concat root "lib/sim/evade_alias.mli") "";
  let bld = Filename.concat root "bld" in
  copy_binary
    (fixture_cmt_path "evade_alias")
    (Filename.concat bld "lib/sim/.fix.objs/byte/fix__Evade_alias.cmt");
  (root, src, bld)

let test_cmt_loader_fresh_then_stale () =
  let _, src, bld = staleness_root () in
  let l = Cmt_loader.create ~build_dir:bld () in
  (match Cmt_loader.for_source l src with
  | Cmt_loader.Typed _ -> ()
  | s ->
      Alcotest.fail
        (Option.value ~default:"not fresh" (Cmt_loader.describe ~build_dir:bld s)));
  (* edit the source after the build: the digest no longer matches *)
  write_file src (read_fixture "evade_alias" ^ "\nlet edited_after_build = ()\n");
  match Cmt_loader.for_source l src with
  | Cmt_loader.Stale m ->
      check Alcotest.bool "says the source changed" true (contains ~sub:"source changed" m)
  | _ -> Alcotest.fail "expected Stale"

let count_run rule (r : Driver.result) =
  List.length (List.filter (fun (f : Finding.t) -> f.Finding.rule = rule) r.Driver.findings)

let test_cmt_stale_degrades_to_note () =
  let root, src, bld = staleness_root () in
  write_file src (read_fixture "evade_alias" ^ "\nlet edited_after_build = ()\n");
  (* a stale cmt yields no typed findings, and is itself an error, so a
     build regression cannot silently shrink coverage *)
  let r = Driver.run ~policy:Policy.default ~build_dir:bld [ root ] in
  check Alcotest.int "no typed findings from a stale cmt" 0 (count_run "raw-atomic" r);
  check Alcotest.int "cmt-missing" 1 (count_run "cmt-missing" r);
  check Alcotest.int "no file typed" 0 r.Driver.typed_files

let test_cmt_fresh_via_driver () =
  (* with an untouched source the driver runs the typed rules off the
     copied cmt and surfaces the planted escape *)
  let root, _, bld = staleness_root () in
  let r = Driver.run ~policy:Policy.default ~build_dir:bld [ root ] in
  check Alcotest.int "typed pass covered the file" 1 r.Driver.typed_files;
  check Alcotest.int "planted escape surfaced" 1 (count_run "raw-atomic" r)

let suites =
  [
    ( "lint.rules",
      [
        Alcotest.test_case "raw-atomic fires" `Quick test_raw_atomic_fires;
        Alcotest.test_case "raw-atomic spared" `Quick test_raw_atomic_spared;
        Alcotest.test_case "nondeterminism fires" `Quick test_nondeterminism_fires;
        Alcotest.test_case "nondeterminism spared" `Quick test_nondeterminism_spared;
        Alcotest.test_case "toplevel-mutable fires" `Quick test_toplevel_mutable_fires;
        Alcotest.test_case "toplevel-mutable spared" `Quick test_toplevel_mutable_spared;
        Alcotest.test_case "io-in-lib fires" `Quick test_io_in_lib_fires;
        Alcotest.test_case "io-in-lib spared" `Quick test_io_in_lib_spared;
        Alcotest.test_case "io-in-lib sockets" `Quick test_io_in_lib_sockets;
        Alcotest.test_case "catch-all fires" `Quick test_catch_all_fires;
        Alcotest.test_case "catch-all spared" `Quick test_catch_all_spared;
        Alcotest.test_case "effect-discipline fires" `Quick test_effect_discipline_fires;
        Alcotest.test_case "effect-discipline spared" `Quick test_effect_discipline_spared;
        Alcotest.test_case "obj-magic fires" `Quick test_obj_magic_fires;
        Alcotest.test_case "obj-magic spared" `Quick test_obj_magic_spared;
        Alcotest.test_case "mli-required" `Quick test_mli_required;
        Alcotest.test_case "parse-error" `Quick test_parse_error;
        Alcotest.test_case "registry" `Quick test_rule_registry;
        Alcotest.test_case "rule metadata" `Quick test_rule_metadata;
      ] );
    ( "lint.typed",
      [
        Alcotest.test_case "evasion: alias" `Quick test_evasion_alias;
        Alcotest.test_case "evasion: open" `Quick test_evasion_open;
        Alcotest.test_case "evasion: eta/partial" `Quick test_evasion_eta;
        Alcotest.test_case "evasion: module O = Obj" `Quick test_evasion_obj_alias;
        Alcotest.test_case "identifier corpus" `Quick test_ident_corpus;
        Alcotest.test_case "poly-compare fixture" `Quick test_poly_compare_fixture;
        Alcotest.test_case "domain-capture fixture" `Quick test_domain_capture_fixture;
        Alcotest.test_case "named-closure fixture" `Quick test_named_closure_fixture;
        Alcotest.test_case "typed findings suppressible" `Quick
          test_typed_findings_suppressible;
        Alcotest.test_case "loader fresh then stale" `Quick test_cmt_loader_fresh_then_stale;
        Alcotest.test_case "stale degrades to note" `Quick test_cmt_stale_degrades_to_note;
        Alcotest.test_case "fresh cmt via driver" `Quick test_cmt_fresh_via_driver;
      ] );
    ( "lint.suppress",
      [
        Alcotest.test_case "file-level" `Quick test_suppress_file_level;
        Alcotest.test_case "binding-scoped" `Quick test_suppress_binding_scoped;
        Alcotest.test_case "missing justification" `Quick test_suppress_missing_justification;
        Alcotest.test_case "unknown rule" `Quick test_suppress_unknown_rule;
        Alcotest.test_case "meta rule rejected" `Quick test_suppress_meta_rule_rejected;
        Alcotest.test_case "blank justification" `Quick test_suppress_blank_justification;
      ] );
    ( "lint.policy",
      [
        Alcotest.test_case "normalize" `Quick test_policy_normalize;
        Alcotest.test_case "scoping" `Quick test_policy_scoping;
      ] );
    ( "lint.driver",
      [
        Alcotest.test_case "rules filter" `Quick test_rules_filter;
        Alcotest.test_case "skips _build" `Quick test_collect_skips_build_dirs;
      ] );
    ( "lint.report",
      [
        Alcotest.test_case "exit codes" `Quick test_report_exit_codes;
        Alcotest.test_case "text shape" `Quick test_report_text;
        Alcotest.test_case "json shape" `Quick test_report_json;
      ] );
  ]
