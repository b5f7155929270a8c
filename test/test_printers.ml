(* The record's byte contract. [Journal.to_line] prints a record
   straight into a buffer and keeps each cell's fields printed; it must
   give the bytes [Json_ref.to_string] gives the reference tree of
   [Journal_ref] on every record, from any domain, whichever cell came
   before. A Result frame's payload is that line. [Journal.of_line]
   reads a line in one pass; on any text it must give the record, or
   the error text, of the reference reader in [Journal_ref] (the tree
   parser and [of_json] it replaced), and so must a Result frame. The
   Format-free renderers of values, process outcomes and violations must
   give the bytes [Fmt.str "%a"] gives with the reference printers of
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

(* ---- the record reader ---- *)

module Json = Campaign.Json

(* Field by field, floats by their bits. *)
let same_record (a : Journal.record) (b : Journal.record) =
  let bits x = Int64.bits_of_float x in
  let flat (r : Journal.record) =
    { r with Journal.cell = { r.Journal.cell with Grid.rate = 0.0; crash_rate = 0.0 } }
  in
  Int64.equal (bits a.Journal.cell.Grid.rate) (bits b.Journal.cell.Grid.rate)
  && Int64.equal (bits a.Journal.cell.Grid.crash_rate) (bits b.Journal.cell.Grid.crash_rate)
  && flat a = flat b

let show = function Ok r -> "record " ^ Journal_ref.to_line r | Error m -> "error " ^ m

(* The reader, and the codec's Result decoder, give the reference
   reader's record or its error text. *)
let reads_alike what line =
  let expected = Journal_ref.of_line line in
  let agrees = function
    | Ok a -> ( match expected with Ok b -> same_record a b | Error _ -> false)
    | Error a -> ( match expected with Error b -> String.equal a b | Ok _ -> false)
  in
  let actual = Journal.of_line line in
  if not (agrees actual) then
    Alcotest.failf "%s: %S\n reference %s\n    reader %s" what line (show expected) (show actual);
  match Codec.of_frame { Wire.tag = 'R'; payload = line } with
  | Ok (Codec.Result r) when agrees (Ok r) -> ()
  | Error m when agrees (Error m) -> ()
  | Ok _ | Error _ -> Alcotest.failf "%s: the Result frame decodes otherwise: %S" what line

(* [s] with its first [sub] replaced by [by], if [sub] occurs. *)
let replace_first ~sub ~by s =
  let n = String.length sub and len = String.length s in
  let rec go i =
    if i + n > len then None
    else if String.equal (String.sub s i n) sub then
      Some (String.sub s 0 i ^ by ^ String.sub s (i + n) (len - i - n))
    else go (i + 1)
  in
  go 0

let fields_of line =
  match Json.of_string line with
  | Ok (Json.Obj fields) -> fields
  | Ok _ | Error _ -> Alcotest.failf "not a record line: %s" line

let line_of fields = Json.to_string (Json.Obj fields)

(* A tree printed with [ws] between every two tokens. *)
let rec spaced ws = function
  | Json.List items ->
      "[" ^ ws ^ String.concat (ws ^ "," ^ ws) (List.map (spaced ws) items) ^ ws ^ "]"
  | Json.Obj fields ->
      let field (k, v) = Json.to_string (Json.Str k) ^ ws ^ ":" ^ ws ^ spaced ws v in
      "{" ^ ws ^ String.concat (ws ^ "," ^ ws) (List.map field fields) ^ ws ^ "}"
  | leaf -> Json.to_string leaf

(* Lines of every shape the journal has written: the campaign corpus
   (witnesses, violations, t = null, crash fields) and generated
   records, NaN and infinite rates among them. *)
let sample_lines () =
  let rand = Random.State.make [| 0x11AE |] in
  Test_json.corpus_lines ()
  @ List.init 300 (fun _ -> Journal_ref.to_line (Gen.generate1 ~rand record))

(* A few lines with every optional part between them. *)
let probe_lines () =
  let lines = Test_json.corpus_lines () in
  let first p = List.find p lines in
  let has sub line = Option.is_some (replace_first ~sub ~by:"" line) in
  [
    first (has "\"witness\"");
    first (has "\"crashes\"");
    first (has "\"t\":null");
    first (fun l -> not (has "\"violations\":[]" l));
    Journal_ref.to_line Test_dist.fixture_record;
  ]

let test_reader_corpus () =
  List.iteri (fun i line -> reads_alike (Fmt.str "sample %d" i) line) (sample_lines ())

(* Every prefix of the probe lines, and every single-byte deletion,
   replacement and insertion, with the bytes the grammar turns on. *)
let test_reader_mutations () =
  let bytes = " \t\"\\,:{}[]0189-+.eEnutfx\000\255" in
  List.iter
    (fun line ->
      let n = String.length line in
      for i = 0 to n do
        reads_alike "prefix" (String.sub line 0 i)
      done;
      for i = 0 to n - 1 do
        let before = String.sub line 0 i and after k = String.sub line k (n - k) in
        reads_alike "deletion" (before ^ after (i + 1));
        String.iter
          (fun c ->
            let c = String.make 1 c in
            reads_alike "replacement" (before ^ c ^ after (i + 1));
            reads_alike "insertion" (before ^ c ^ after i))
          bytes
      done)
    (probe_lines ())

(* Field-level edits of the probe lines: reordered, dropped, duplicated
   and unknown keys, foreign values, escapes, number spellings,
   whitespace, the layouts of older journals, deep nesting and
   top-level values that are not objects. *)
let test_reader_edits () =
  let deep k inner = String.make k '[' ^ inner ^ String.make k ']' in
  List.iter
    (fun line ->
      let fields = fields_of line in
      let alike what fields = reads_alike what (line_of fields) in
      alike "reversed" (List.rev fields);
      alike "rotated" (List.tl fields @ [ List.hd fields ]);
      List.iter
        (fun (k, v) ->
          let others = List.filter (fun (k', _) -> not (String.equal k k')) fields in
          alike ("without " ^ k) others;
          List.iter
            (fun v' ->
              alike ("first " ^ k ^ " foreign") ((k, v') :: fields);
              alike ("later " ^ k ^ " foreign") (fields @ [ (k, v') ]);
              alike ("only " ^ k ^ " foreign") ((k, v') :: others))
            [
              Json.Null; Json.Bool true; Json.Int (-1); Json.Int 3; Json.Float 3.0; Json.Float 0.5;
              Json.Str "pass"; Json.Str "overriding"; Json.Str "-17"; Json.Str "lossy";
              Json.List []; Json.List [ Json.Int 1; Json.Float 2.0 ]; Json.List [ Json.Str "v" ];
              Json.List [ Json.Int 1; Json.Str "x" ]; Json.Obj []; Json.Obj [ (k, v) ];
            ])
        fields;
      List.iter
        (fun (k, v) ->
          alike ("unknown " ^ k) ((k, v) :: fields);
          alike ("unknown " ^ k ^ " last") (fields @ [ (k, v) ]))
        [
          ("zz", Json.Obj [ ("trial", Json.Str "no") ]);
          ("Trial", Json.Int 0);
          ("", Json.List [ Json.Obj []; Json.Null ]);
          ("trial ", Json.Null);
          ("tria", Json.Null);
          ("witnesses", Json.List [ Json.Str "x" ]);
        ];
      (* nesting inside an unknown key: the top-level object is one
         level, so 63 more are allowed and the 64th is not *)
      List.iter
        (fun k ->
          let text = line_of fields in
          let body = String.sub text 1 (String.length text - 1) in
          reads_alike (Fmt.str "%d deep" k) ("{\"zz\":" ^ deep k "1" ^ "," ^ body);
          reads_alike (Fmt.str "%d deep, last" k)
            (String.sub text 0 (String.length text - 1) ^ ",\"zz\":" ^ deep k "" ^ "}"))
        [ 1; 62; 63; 64; 65; 200 ];
      List.iter
        (fun ws -> reads_alike (Fmt.str "spaced %S" ws) (spaced ws (Json.Obj fields)))
        [ " "; "\t"; "\n"; "\r\n"; " \t\n\r " ];
      reads_alike "spaced outside" (" \n" ^ line ^ "\t\r ");
      (* older journals *)
      let without ks = List.filter (fun (k, _) -> not (List.mem k ks)) fields in
      alike "pre-supervision" (without [ "outcome"; "retries" ]);
      alike "pre-recovery" (without [ "crashes"; "crash_rate"; "persistence"; "crash_faults" ]);
      alike "pre-everything"
        (without [ "outcome"; "retries"; "crashes"; "crash_rate"; "persistence"; "crash_faults" ]);
      alike "empty object" [];
      (* text-level spellings the printer never writes *)
      let subst what ~sub ~by =
        match replace_first ~sub ~by line with Some l -> reads_alike what l | None -> ()
      in
      List.iter
        (fun (sub, by) -> subst ("escape " ^ by) ~sub ~by)
        [
          ("\"trial\":", "\"tri\\u0061l\":");
          ("\"trial\":", "\"\\u0074rial\":");
          ("\"kind\":", "\"\\u006bind\":");
          ("\"f\":", "\"\\u0066\":");
          ("\"t\":", "\"\\t\":");
          ("\"seed\":\"", "\"seed\":\"\\u002d");
          ("\"outcome\":\"", "\"outcome\":\"\\u0070");
          ("\"overriding\"", "\"over\\u0072iding\"");
          ("\"overriding\"", "\"over\\/riding\"");
          ("\"pass\"", "\"p\\u0061ss\"");
          ("\"all\"", "\"\\u0061ll\"");
          ("\"violations\":[", "\"violations\":[\"\\u00e9\\u20ac\\n\\\"\",");
          ("\"trial\":", "\"trial\\u0000\":");
          ("\"trial\":", "\"trial\\uzzzz\":");
          ("\"trial\":", "\"trial\\q\":");
        ];
      List.iter
        (fun lexeme ->
          List.iter
            (fun key ->
              match List.assoc_opt key fields with
              | None -> ()
              | Some v ->
                  subst (key ^ " = " ^ lexeme)
                    ~sub:("\"" ^ key ^ "\":" ^ Json.to_string v)
                    ~by:("\"" ^ key ^ "\":" ^ lexeme))
            [ "trial"; "f"; "n"; "rate"; "steps"; "stage"; "crashes"; "crash_rate"; "retries" ])
        [
          "1e2"; "1E2"; "-0"; "-0.0"; "007"; "00"; "3.0"; "0.5"; "1e19"; "-1e19"; "1e400";
          "99999999999999999999"; "-99999999999999999999"; "999999999999999999";
          "-999999999999999999"; "4611686018427387903"; "4611686018427387904";
          "-4611686018427387904"; "-4611686018427387905"; "-"; "1-2"; "+1"; "1e"; "--1"; "1.";
        ];
      subst "witness spellings" ~sub:"\"witness\":[" ~by:"\"witness\":[1e2,-0,007,3.0,")
    (probe_lines ());
  List.iter
    (fun text -> reads_alike "not an object" text)
    [
      ""; " "; "[]"; "[1]"; "1"; "-0"; "\"x\""; "null"; "true"; "[{\"trial\":1}]"; "{}"; "{ }";
      "{\"trial\":1}"; "}"; "{"; "{\"trial\"}"; "{,}"; "nul"; "1 2"; deep 64 ""; deep 65 "";
      "\"\\u12\"";
    ]

(* Random field-level edits of random records, printed with random
   whitespace. *)
let prop_reader_matches_reference =
  let open Gen in
  let edited fields =
    let* order = shuffle_l fields in
    let* fields = frequency [ (2, return fields); (1, return order) ] in
    let* dropped = list_size (int_bound 2) (oneofl (List.map fst fields)) in
    let fields = List.filter (fun (k, _) -> not (List.mem k dropped)) fields in
    let* extra =
      list_size (int_bound 3)
        (pair (oneofl [ "trial"; "rate"; "kind"; "witness"; "outcome"; "zz"; "" ]) Test_json.tree)
    in
    let* front = bool in
    let fields = if front then extra @ fields else fields @ extra in
    let* ws = oneofl [ ""; ""; " "; "\n\t" ] in
    return (if String.equal ws "" then line_of fields else spaced ws (Json.Obj fields))
  in
  let edit =
    let* r = record in
    let line = Journal_ref.to_line r in
    match Json.of_string line with
    | Ok (Json.Obj fields) -> edited fields
    | Ok _ | Error _ -> (* a NaN or an infinite rate does not parse back *) return line
  in
  QCheck.Test.make ~name:"reader matches the reference on edited records" ~count:1000
    (QCheck.make ~print:Fun.id edit)
    (fun line ->
      reads_alike "edited record" line;
      true)

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
        Alcotest.test_case "reader: corpus and generated lines" `Quick test_reader_corpus;
        Alcotest.test_case "reader: prefixes and byte mutations" `Quick test_reader_mutations;
        Alcotest.test_case "reader: field edits and spellings" `Quick test_reader_edits;
        qcheck prop_reader_matches_reference;
      ] );
    ( "verify.render-oracle",
      [
        Alcotest.test_case "every constructor" `Quick test_renderer_cases;
        qcheck prop_violation_matches_reference;
      ] );
  ]
