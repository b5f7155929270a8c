(* The record's byte contract. [Journal.to_line] prints a record
   straight into a buffer and keeps each cell's fields printed; it must
   give the bytes [Json_ref.to_string] gives the reference tree of
   [Journal_ref] on every record, from any domain, whichever cell came
   before. A Result frame's payload is that line. The Format-free
   renderers of values, process outcomes and violations must give the
   bytes [Fmt.str "%a"] gives with the reference printers of
   [Render_ref]. *)

module Campaign = Ffault_campaign
module Journal = Campaign.Journal
module Grid = Campaign.Grid
module Codec = Ffault_dist.Codec
module Wire = Ffault_dist.Wire
module Fault_kind = Ffault_fault.Fault_kind
module Persistence = Ffault_recover.Persistence
module Value = Ffault_objects.Value
module Obj_id = Ffault_objects.Obj_id
module Engine = Ffault_sim.Engine
module Check = Ffault_verify.Consensus_check
module Gen = QCheck.Gen

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

(* ---- generators ---- *)

let int_value =
  Gen.frequency
    [
      (2, Gen.small_signed_int);
      (1, Gen.int);
      (1, Gen.oneofl [ min_int; max_int; min_int + 1; -1; 0; 1; -1000 ]);
    ]

(* Violation text: runs of any byte, the bytes the escaper treats
   specially, and the UTF-8 the renderers emit. *)
let text =
  let piece =
    Gen.frequency
      [
        (3, Gen.string_size ~gen:Gen.printable (Gen.int_bound 12));
        (1, Gen.string_size ~gen:Gen.char (Gen.int_bound 4));
        ( 2,
          Gen.oneofl
            [ "\""; "\\"; "\n"; "\r"; "\t"; "\000"; "\x01"; "\x1f"; "\x7f"; "\xff";
              "\xe2\x8a\xa5" (* ⊥ *); "\xe2\x9f\xa8" (* ⟨ *); "\xe2\x9f\xa9" (* ⟩ *) ] );
      ]
  in
  Gen.map (String.concat "") (Gen.list_size (Gen.int_bound 8) piece)

(* Rates as a spec may hold them, integral ones on the %.1f path among
   them, then any double at all: the printer owes the reference's bytes
   for every float. *)
let rate_value =
  Gen.frequency
    [
      (3, Gen.oneofl [ 0.0; -0.0; 1.0; 0.1; 0.2; 0.3; 0.4; 0.5; 0.9; 1e-300; 0.30000000000000004 ]);
      (2, Gen.float_bound_inclusive 1.0);
      (1, Gen.oneofl [ Float.nan; Float.infinity; Float.neg_infinity; 1e15; -3.0; 1e300 ]);
      (1, Gen.map Int64.float_of_bits Gen.ui64);
    ]

let persistence =
  Gen.oneof
    [
      Gen.return Persistence.Persist_all;
      Gen.return Persistence.Persist_lossy;
      Gen.map
        (fun ids -> Persistence.Persist_only (List.map Obj_id.of_int ids))
        (Gen.list_size (Gen.int_bound 3) (Gen.int_bound 9));
    ]

let cell =
  let open Gen in
  let* f = int_value in
  let* t = opt int_value in
  let* n = int_value in
  let* kind = oneofl Fault_kind.all in
  let* rate = rate_value in
  let* crashes = frequency [ (2, return 0); (1, int_range 1 3); (1, int_value) ] in
  let* crash_rate = rate_value in
  let* persistence = persistence in
  return { Grid.f; t; n; kind; rate; crashes; crash_rate; persistence }

let outcome = Gen.oneofl Journal.[ Pass; Violation; Timeout; Quarantined ]

let witness =
  Gen.frequency
    [
      (2, Gen.return None);
      (1, Gen.return (Some [||]));
      (2, Gen.map Option.some (Gen.array_size (Gen.int_bound 8) int_value));
      (1, Gen.map Option.some (Gen.array_size (Gen.int_range 200 600) (Gen.int_bound 5)));
    ]

let record_in cell =
  let open Gen in
  let* trial = int_value in
  let* seed =
    frequency [ (3, ui64); (1, oneofl [ Int64.min_int; Int64.max_int; 0L; -1L ]) ]
  in
  let* ok = bool in
  let* outcome = outcome in
  let* retries = int_value in
  let* violations = list_size (int_bound 3) text in
  let* steps = int_value in
  let* max_steps = int_value in
  let* stage = int_value in
  let* faults = int_value in
  let* crash_faults = int_value in
  let* wall_us = int_value in
  let* witness = witness in
  return
    {
      Journal.trial;
      cell;
      seed;
      ok;
      outcome;
      retries;
      violations;
      steps;
      max_steps;
      stage;
      faults;
      crash_faults;
      wall_us;
      witness;
    }

let record = Gen.(cell >>= record_in)

(* Both lines, so a failure names the first differing byte. *)
let same_line what r =
  let expected = Journal_ref.to_line r in
  let actual = Journal.to_line r in
  if not (String.equal expected actual) then begin
    let n = min (String.length expected) (String.length actual) in
    let rec first i = if i < n && expected.[i] = actual.[i] then first (i + 1) else i in
    Alcotest.failf "%s: byte %d differs\n reference %s\n   printer %s" what (first 0) expected
      actual
  end

(* ---- the record printer ---- *)

let prop_line_matches_reference =
  QCheck.Test.make ~name:"to_line matches the reference tree" ~count:2000
    (QCheck.make ~print:Journal_ref.to_line record)
    (fun r ->
      same_line "random record" r;
      true)

(* The cases the generator may or may not draw, each once: the null t,
   the integral rates, extreme ints and seeds, every outcome, empty and
   long witnesses, crash and crash-free cells. *)
let test_edge_records () =
  let base_cell =
    { Grid.f = 1; t = None; n = 2; kind = Fault_kind.Overriding; rate = 0.5; crashes = 0;
      crash_rate = 0.0; persistence = Persistence.Persist_all }
  in
  let base =
    { Journal.trial = 0; cell = base_cell; seed = 0L; ok = true; outcome = Journal.Pass;
      retries = 0; violations = []; steps = 0; max_steps = 0; stage = -1; faults = 0;
      crash_faults = 0; wall_us = 0; witness = None }
  in
  let crash_cell = { base_cell with Grid.crashes = 2; crash_rate = 0.4 } in
  let records =
    List.concat
      [
        List.map
          (fun rate -> { base with Journal.cell = { base_cell with Grid.rate } })
          [ 0.0; -0.0; 1.0; 0.1 ];
        List.map
          (fun crash_rate -> { base with Journal.cell = { crash_cell with Grid.crash_rate } })
          [ 0.0; -0.0; 1.0; 0.2 ];
        List.map
          (fun outcome -> { base with Journal.outcome; ok = outcome = Journal.Pass })
          Journal.[ Pass; Violation; Timeout; Quarantined ];
        List.map
          (fun i ->
            {
              base with
              Journal.trial = i;
              steps = i;
              max_steps = i;
              stage = i;
              faults = i;
              retries = i;
              wall_us = i;
              crash_faults = i;
              cell = { crash_cell with Grid.f = i; n = i; t = Some i };
            })
          [ min_int; max_int; -1; -42 ];
        List.map
          (fun seed -> { base with Journal.seed })
          [ Int64.min_int; Int64.max_int; -553L; -1L ];
        List.map
          (fun witness -> { base with Journal.witness })
          [ Some [||]; Some [| 0 |]; Some (Array.init 1000 (fun i -> (i * 7) mod 5)) ];
        List.map
          (fun persistence -> { base with Journal.cell = { crash_cell with Grid.persistence } })
          [
            Persistence.Persist_lossy;
            Persistence.Persist_only [ Obj_id.of_int 0; Obj_id.of_int 3 ];
          ];
        [
          {
            base with
            Journal.ok = false;
            outcome = Journal.Violation;
            violations =
              [
                "consistency: p0 decided \"a\\\"b\" but p1 decided \xe2\x8a\xa5";
                "line\nbreak\ttab\r\000\x1f\x7f";
                "\xe2\x9f\xa8\"x\",3\xe2\x9f\xa9";
                "";
              ];
          };
        ];
      ]
  in
  List.iteri (fun i r -> same_line (Fmt.str "edge record %d" i) r) records

(* Records of three kinds, mixed: runs sharing one cell value, records
   re-decoded from their own lines (a fresh cell each), and runs of
   neighbours whose cells differ only in 0.0 against -0.0. Two domains
   print them at once, in opposite orders, several times over. *)
let test_two_domains () =
  let rand = Random.State.make [| 0x5EED |] in
  let draw gen = Gen.generate1 ~rand gen in
  let shared = draw cell in
  let zero = { shared with Grid.rate = 0.0; crashes = 1; crash_rate = 0.0 } in
  let signed =
    [| zero; { zero with Grid.rate = -0.0 }; { zero with Grid.crash_rate = -0.0 } |]
  in
  let records =
    Array.init 900 (fun i ->
        match i mod 6 with
        | 0 | 1 -> draw (record_in shared)
        | 2 -> (
            let r = draw record in
            match Journal.of_line (Journal_ref.to_line r) with
            | Ok r' -> r'
            | Error _ ->
                (* a NaN or an infinity does not parse back; keep the
                   record itself *)
                r)
        | k -> draw (record_in signed.(k - 3)))
  in
  let expected = Array.map Journal_ref.to_line records in
  let n = Array.length records in
  let mismatches order =
    let bad = ref [] in
    for _round = 1 to 5 do
      for k = 0 to n - 1 do
        let i = order k in
        if not (String.equal (Journal.to_line records.(i)) expected.(i)) then bad := i :: !bad
      done
    done;
    !bad
  in
  let other = Domain.spawn (fun () -> mismatches (fun k -> n - 1 - k)) in
  let here = mismatches Fun.id in
  let there = Domain.join other in
  match here @ there with
  | [] -> ()
  | i :: _ -> same_line (Fmt.str "record %d" i) records.(i)

(* A Result frame's payload is the journal line, on every record of the
   campaign corpus and on generated records. *)
let test_result_frame_is_line () =
  let corpus =
    List.map
      (fun line ->
        match Journal.of_line line with
        | Ok r -> r
        | Error m -> Alcotest.failf "%s: %s" m line)
      (Test_json.corpus_lines ())
  in
  let rand = Random.State.make [| 0xF4A3E |] in
  let generated = List.init 500 (fun _ -> Gen.generate1 ~rand record) in
  List.iter
    (fun r ->
      let frame = Codec.to_frame (Codec.Result r) in
      check Alcotest.char "tag" 'R' frame.Wire.tag;
      check Alcotest.string "payload is the line" (Journal.to_line r) frame.Wire.payload)
    (corpus @ generated);
  check Alcotest.bool "corpus has records" true (List.length corpus > 100)

(* ---- the renderers ---- *)

let value =
  Gen.sized_size (Gen.int_bound 12)
  @@ Gen.fix (fun self size ->
         let leaf =
           Gen.frequency
             [
               (1, Gen.return Value.Bottom);
               (1, Gen.map (fun b -> Value.Bool b) Gen.bool);
               (3, Gen.map (fun i -> Value.Int i) int_value);
               (2, Gen.map (fun s -> Value.Str s) text);
             ]
         in
         if size <= 0 then leaf
         else
           let sub = self (size / 2) in
           Gen.frequency
             [
               (2, leaf);
               (1, Gen.map2 (fun a b -> Value.Pair (a, b)) sub sub);
               (1, Gen.map2 (fun value stage -> Value.Staged { value; stage }) sub int_value);
             ])

let proc_outcome =
  Gen.oneof
    [
      Gen.map (fun v -> Engine.Decided v) value;
      Gen.return Engine.Hung;
      Gen.map2 (fun steps budget -> Engine.Exhausted { steps; budget }) int_value int_value;
      Gen.return Engine.Step_limited;
      Gen.return Engine.Cancelled;
      Gen.map (fun m -> Engine.Crashed m) text;
    ]

let violation =
  Gen.oneof
    [
      Gen.map2 (fun proc decided -> Check.Validity { proc; decided }) int_value value;
      Gen.map2
        (fun (proc_a, val_a) (proc_b, val_b) -> Check.Consistency { proc_a; val_a; proc_b; val_b })
        (Gen.pair int_value value) (Gen.pair int_value value);
      Gen.map2 (fun proc outcome -> Check.Wait_freedom { proc; outcome }) int_value proc_outcome;
    ]

(* The new rendering equals the reference's, and the library's pp
   prints exactly it. *)
let renders_alike what ~reference ~to_string ~pp x =
  let expected = Fmt.str "%a" reference x in
  check Alcotest.string (what ^ " to_string") expected (to_string x);
  check Alcotest.string (what ^ " pp") expected (Fmt.str "%a" pp x)

let test_renderer_cases () =
  let values =
    Value.
      [
        Bottom;
        Bool true;
        Bool false;
        Int 0;
        Int (-7);
        Int min_int;
        Int max_int;
        Str "";
        Str "plain";
        Str "q\"uo\\te\n\t\r\000\x7f\xe2\x8a\xa5";
        Pair (Int 1, Str "a");
        Pair (Pair (Bottom, Staged { value = Int (-2); stage = 3 }), Pair (Bool true, Str "\""));
        Staged { value = Bottom; stage = 0 };
        Staged { value = Staged { value = Pair (Int 1, Int 2); stage = -1 }; stage = max_int };
      ]
  in
  List.iter
    (fun v ->
      renders_alike "value" ~reference:Render_ref.pp_value ~to_string:Value.to_string
        ~pp:Value.pp v)
    values;
  let outcomes =
    Engine.
      [
        Hung;
        Exhausted { steps = 9; budget = 8 };
        Exhausted { steps = min_int; budget = -1 };
        Step_limited;
        Cancelled;
        Crashed "Failure(\"boom\") \\ \"quoted\"\nsecond line";
        Crashed "";
      ]
    @ List.map (fun v -> Engine.Decided v) values
  in
  List.iter
    (fun o ->
      renders_alike "outcome" ~reference:Render_ref.pp_proc_outcome
        ~to_string:Engine.proc_outcome_to_string ~pp:Engine.pp_proc_outcome o)
    outcomes;
  let violations =
    List.concat_map
      (fun v ->
        Check.
          [
            Validity { proc = 2; decided = v };
            Consistency { proc_a = 0; val_a = v; proc_b = -1; val_b = Value.Int 5 };
            Consistency { proc_a = max_int; val_a = Value.Bottom; proc_b = 1; val_b = v };
          ])
      values
    @ List.map (fun outcome -> Check.Wait_freedom { proc = 1; outcome }) outcomes
  in
  List.iter
    (fun v ->
      renders_alike "violation" ~reference:Render_ref.pp_violation
        ~to_string:Check.violation_to_string ~pp:Check.pp_violation v)
    violations

let prop_violation_matches_reference =
  QCheck.Test.make ~name:"violations match the Fmt reference" ~count:2000
    (QCheck.make ~print:(Fmt.str "%a" Render_ref.pp_violation) violation)
    (fun v ->
      renders_alike "violation" ~reference:Render_ref.pp_violation
        ~to_string:Check.violation_to_string ~pp:Check.pp_violation v;
      true)

let suites =
  [
    ( "campaign.line-oracle",
      [
        qcheck prop_line_matches_reference;
        Alcotest.test_case "edge records" `Quick test_edge_records;
        Alcotest.test_case "two domains, shared and re-decoded cells" `Quick test_two_domains;
        Alcotest.test_case "result frame payload is the line" `Quick test_result_frame_is_line;
      ] );
    ( "verify.render-oracle",
      [
        Alcotest.test_case "every constructor" `Quick test_renderer_cases;
        qcheck prop_violation_matches_reference;
      ] );
  ]
