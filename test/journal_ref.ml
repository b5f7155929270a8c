(* Test-only reference record printer and reader.

   The printer is [Journal.to_json] as it stood before the journal
   printed its records straight into a buffer, here building a
   [Json_ref] tree. The differential tests in test_printers.ml hold
   [Journal.to_line] to [Json_ref.to_string] of this tree.

   The reader is [Journal.of_json] applied to [Json.of_string], both as
   they stood before a line was read in one pass without a tree: the
   same records and the same error texts, which the line oracle in
   test_printers.ml holds [Journal.of_line] to. Never linked into lib/. *)

module Json = Json_ref
module Grid = Ffault_campaign.Grid
module Fault_kind = Ffault_fault.Fault_kind
module Persistence = Ffault_recover.Persistence
open Ffault_campaign.Journal

let outcome_to_string = function
  | Pass -> "pass"
  | Violation -> "violation"
  | Timeout -> "timeout"
  | Quarantined -> "quarantined"

let outcome_of_string = function
  | "pass" -> Some Pass
  | "violation" -> Some Violation
  | "timeout" -> Some Timeout
  | "quarantined" -> Some Quarantined
  | _ -> None

let to_json r =
  let base =
    [
      ("trial", Json.Int r.trial);
      ("f", Json.Int r.cell.Grid.f);
      ("t", match r.cell.Grid.t with Some t -> Json.Int t | None -> Json.Null);
      ("n", Json.Int r.cell.Grid.n);
      ("kind", Json.Str (Fault_kind.to_string r.cell.Grid.kind));
      ("rate", Json.Float r.cell.Grid.rate);
      ("seed", Json.Str (Int64.to_string r.seed));
      ("ok", Json.Bool r.ok);
      ("outcome", Json.Str (outcome_to_string r.outcome));
      ("retries", Json.Int r.retries);
      ("violations", Json.List (List.map (fun v -> Json.Str v) r.violations));
      ("steps", Json.Int r.steps);
      ("max_steps", Json.Int r.max_steps);
      ("stage", Json.Int r.stage);
      ("faults", Json.Int r.faults);
      ("wall_us", Json.Int r.wall_us);
    ]
  in
  (* Crash fields only appear for crash cells: crash-free records stay
     byte-identical to pre-recovery journals. *)
  let crash =
    if r.cell.Grid.crashes = 0 then []
    else
      [
        ("crashes", Json.Int r.cell.Grid.crashes);
        ("crash_rate", Json.Float r.cell.Grid.crash_rate);
        ("persistence", Json.Str (Persistence.to_string r.cell.Grid.persistence));
        ("crash_faults", Json.Int r.crash_faults);
      ]
  in
  let witness =
    match r.witness with
    | None -> []
    | Some w -> [ ("witness", Json.List (Array.to_list (Array.map (fun d -> Json.Int d) w))) ]
  in
  Json.Obj (base @ crash @ witness)

let to_line r = Json.to_string (to_json r)

(* ---- the reference reader ---- *)

module Tree = Ffault_campaign.Json

(* [Json.of_string] before it was rebuilt on a cursor, verbatim. *)
module Parse = struct
  open Tree

  exception Parse_error of string

  let max_depth = 64

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let next_is c = !pos < n && Char.equal (String.unsafe_get s !pos) c in
    let rec skip_ws () =
      if !pos < n then
        match String.unsafe_get s !pos with
        | ' ' | '\t' | '\n' | '\r' ->
            incr pos;
            skip_ws ()
        | _ -> ()
    in
    let expect c = if next_is c then incr pos else fail (Printf.sprintf "expected %C" c) in
    let literal word v =
      let l = String.length word in
      let rec matches i =
        i = l || (Char.equal (String.unsafe_get s (!pos + i)) word.[i] && matches (i + 1))
      in
      if !pos + l <= n && matches 0 then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    (* the offset of the first closing quote or backslash at or after [i],
       or [n] *)
    let rec string_stop i =
      if i < n then match String.unsafe_get s i with '"' | '\\' -> i | _ -> string_stop (i + 1)
      else n
    in
    let parse_string () =
      expect '"';
      let start = !pos in
      let stop = string_stop start in
      if stop < n && Char.equal (String.unsafe_get s stop) '"' then begin
        pos := stop + 1;
        String.sub s start (stop - start)
      end
      else begin
        (* escapes (or no closing quote): decode into a buffer, copying
           the runs between escapes whole *)
        let b = Buffer.create (stop - start + 16) in
        let rec go stop =
          Buffer.add_substring b s !pos (stop - !pos);
          pos := stop;
          if !pos >= n then fail "unterminated string";
          let c = String.unsafe_get s !pos in
          incr pos;
          if Char.equal c '"' then Buffer.contents b
          else begin
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            incr pos;
            (match e with
            | '"' | '\\' | '/' -> Buffer.add_char b e
            | 'n' -> Buffer.add_char b '\n'
            | 't' -> Buffer.add_char b '\t'
            | 'r' -> Buffer.add_char b '\r'
            | 'b' -> Buffer.add_char b '\b'
            | 'f' -> Buffer.add_char b '\012'
            | 'u' ->
                if !pos + 4 > n then fail "truncated \\u escape";
                let code =
                  try int_of_string ("0x" ^ String.sub s !pos 4)
                  with Failure _ -> fail "bad \\u escape"
                in
                pos := !pos + 4;
                (* encode the code point as UTF-8 (BMP only; our own
                   encoder never emits \u for non-control characters) *)
                if code < 0x80 then Buffer.add_char b (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char b (Char.chr (0xC0 lor (code lsr 6)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
                else begin
                  Buffer.add_char b (Char.chr (0xE0 lor (code lsr 12)));
                  Buffer.add_char b (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                  Buffer.add_char b (Char.chr (0x80 lor (code land 0x3F)))
                end
            | _ -> fail "bad escape");
            go (string_stop !pos)
          end
        in
        pos := start;
        go stop
      end
    in
    let parse_number () =
      let start = !pos in
      let is_float = ref false in
      let continue = ref true in
      while !continue && !pos < n do
        match String.unsafe_get s !pos with
        | '0' .. '9' | '-' | '+' -> incr pos
        | '.' | 'e' | 'E' ->
            is_float := true;
            incr pos
        | _ -> continue := false
      done;
      let text = String.sub s start (!pos - start) in
      if !is_float then
        match float_of_string_opt text with Some f -> Float f | None -> fail "bad number"
      else
        match int_of_string_opt text with
        | Some i -> Int i
        | None -> (
            match float_of_string_opt text with Some f -> Float f | None -> fail "bad number")
    in
    let open_container depth =
      if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d levels" max_depth);
      incr pos;
      skip_ws ()
    in
    let rec parse_value depth =
      skip_ws ();
      if !pos >= n then fail "unexpected end of input";
      match String.unsafe_get s !pos with
      | '"' -> Str (parse_string ())
      | 'n' -> literal "null" Null
      | 't' -> literal "true" (Bool true)
      | 'f' -> literal "false" (Bool false)
      | '-' | '0' .. '9' -> parse_number ()
      | '[' ->
          open_container depth;
          if next_is ']' then begin
            incr pos;
            List []
          end
          else begin
            let items = ref [ parse_value (depth + 1) ] in
            skip_ws ();
            while next_is ',' do
              incr pos;
              items := parse_value (depth + 1) :: !items;
              skip_ws ()
            done;
            expect ']';
            List (List.rev !items)
          end
      | '{' ->
          open_container depth;
          if next_is '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let field () =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = parse_value (depth + 1) in
              (k, v)
            in
            let fields = ref [ field () ] in
            skip_ws ();
            while next_is ',' do
              incr pos;
              fields := field () :: !fields;
              skip_ws ()
            done;
            expect '}';
            Obj (List.rev !fields)
          end
      | c -> fail (Printf.sprintf "unexpected character %C" c)
    in
    match parse_value 0 with
    | v ->
        skip_ws ();
        if !pos <> n then Error (Printf.sprintf "trailing garbage at offset %d" !pos) else Ok v
    | exception Parse_error msg -> Error msg
end

let of_json json =
  let ( let* ) = Result.bind in
  let field key project =
    match Option.bind (Tree.member key json) project with
    | Some v -> Ok v
    | None -> Error (Fmt.str "journal record: missing or malformed %S" key)
  in
  let* trial = field "trial" Tree.get_int in
  let* f = field "f" Tree.get_int in
  let* t =
    field "t" (function Tree.Null -> Some None | j -> Option.map Option.some (Tree.get_int j))
  in
  let* n = field "n" Tree.get_int in
  let* kind = field "kind" (fun j -> Option.bind (Tree.get_str j) Fault_kind.of_string) in
  let* rate = field "rate" Tree.get_float in
  let* seed = field "seed" (fun j -> Option.bind (Tree.get_str j) Int64.of_string_opt) in
  let* ok = field "ok" Tree.get_bool in
  (* Both supervision fields default for pre-supervision journals (PR 1-3):
     outcome is inferred from ok, retries from absence. *)
  let* outcome =
    match Tree.member "outcome" json with
    | None -> Ok (if ok then Pass else Violation)
    | Some j -> (
        match Option.bind (Tree.get_str j) outcome_of_string with
        | Some o -> Ok o
        | None -> Error "journal record: malformed outcome")
  in
  let* retries =
    match Tree.member "retries" json with
    | None -> Ok 0
    | Some j -> (
        match Tree.get_int j with
        | Some r when r >= 0 -> Ok r
        | Some _ | None -> Error "journal record: malformed retries")
  in
  let* violations =
    field "violations" (fun j ->
        Option.bind (Tree.get_list j) (fun items ->
            let vs = List.filter_map Tree.get_str items in
            if List.length vs = List.length items then Some vs else None))
  in
  let* steps = field "steps" Tree.get_int in
  let* max_steps = field "max_steps" Tree.get_int in
  let* stage = field "stage" Tree.get_int in
  let* faults = field "faults" Tree.get_int in
  let* wall_us = field "wall_us" Tree.get_int in
  (* Crash fields default for crash-free records (and pre-recovery
     journals, which predate the crash axes entirely). *)
  let* crashes =
    match Tree.member "crashes" json with
    | None -> Ok 0
    | Some j -> (
        match Tree.get_int j with
        | Some c when c >= 0 -> Ok c
        | Some _ | None -> Error "journal record: malformed crashes")
  in
  let* crash_rate =
    match Tree.member "crash_rate" json with
    | None -> Ok 0.0
    | Some j -> (
        match Tree.get_float j with
        | Some r -> Ok r
        | None -> Error "journal record: malformed crash_rate")
  in
  let* persistence =
    match Tree.member "persistence" json with
    | None -> Ok Persistence.Persist_all
    | Some j -> (
        match Tree.get_str j with
        | Some s -> (
            match Persistence.of_string s with
            | Ok m -> Ok m
            | Error _ -> Error "journal record: malformed persistence")
        | None -> Error "journal record: malformed persistence")
  in
  let* crash_faults =
    match Tree.member "crash_faults" json with
    | None -> Ok 0
    | Some j -> (
        match Tree.get_int j with
        | Some c when c >= 0 -> Ok c
        | Some _ | None -> Error "journal record: malformed crash_faults")
  in
  let* witness =
    match Tree.member "witness" json with
    | None -> Ok None
    | Some j -> (
        match
          Option.bind (Tree.get_list j) (fun items ->
              let vs = List.filter_map Tree.get_int items in
              if List.length vs = List.length items then Some vs else None)
        with
        | Some vs -> Ok (Some (Array.of_list vs))
        | None -> Error "journal record: malformed witness")
  in
  Ok
    {
      trial;
      cell = { Grid.f; t; n; kind; rate; crashes; crash_rate; persistence };
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

let of_line line = match Parse.of_string line with Ok j -> of_json j | Error m -> Error m
