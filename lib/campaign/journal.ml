module Fault_kind = Ffault_fault.Fault_kind
module Persistence = Ffault_recover.Persistence

type outcome = Pass | Violation | Timeout | Quarantined

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

type record = {
  trial : int;
  cell : Grid.cell;
  seed : int64;
  ok : bool;
  outcome : outcome;
  retries : int;
  violations : string list;
  steps : int;
  max_steps : int;
  stage : int;
  faults : int;
  crash_faults : int;  (** crash-restarts charged during the trial *)
  wall_us : int;
  witness : int array option;
}

(* ---- printing ---- *)

(* A cell's fields as one record prints them: [head] from the comma after
   the trial id through the key of "seed", and [crash] (crash cells
   only) from the comma before "crashes" through the key of
   "crash_faults". *)
type cell_text = { key : Grid.cell; head : string; crash : string }

let print_cell (c : Grid.cell) =
  let b = Buffer.create 128 in
  Buffer.add_string b ",\"f\":";
  Json.add_int b c.f;
  Buffer.add_string b ",\"t\":";
  (match c.t with Some t -> Json.add_int b t | None -> Buffer.add_string b "null");
  Buffer.add_string b ",\"n\":";
  Json.add_int b c.n;
  Buffer.add_string b ",\"kind\":";
  Json.add_string b (Fault_kind.to_string c.kind);
  Buffer.add_string b ",\"rate\":";
  Json.add_float b c.rate;
  Buffer.add_string b ",\"seed\":";
  let head = Buffer.contents b in
  (* Crash fields only appear for crash cells: crash-free records stay
     byte-identical to pre-recovery journals. *)
  let crash =
    if c.crashes = 0 then ""
    else begin
      Buffer.clear b;
      Buffer.add_string b ",\"crashes\":";
      Json.add_int b c.crashes;
      Buffer.add_string b ",\"crash_rate\":";
      Json.add_float b c.crash_rate;
      Buffer.add_string b ",\"persistence\":";
      Json.add_string b (Persistence.to_string c.persistence);
      Buffer.add_string b ",\"crash_faults\":";
      Buffer.contents b
    end
  in
  { key = c; head; crash }

(* Floats by their bits: [Float.equal 0.0 (-0.0)] holds, yet the two
   print differently. *)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_cell (a : Grid.cell) (b : Grid.cell) =
  a == b
  || a.f = b.f
     && Option.equal Int.equal a.t b.t
     && a.n = b.n
     && Fault_kind.equal a.kind b.kind
     && same_float a.rate b.rate
     && a.crashes = b.crashes
     && same_float a.crash_rate b.crash_rate
     && (a.persistence == b.persistence || Persistence.equal a.persistence b.persistence)

(* The cell fields a line carries: the crash axes only when [a] has
   crashes, since a crash-free line omits them and reads back with
   their defaults. *)
let same_line_cell (a : Grid.cell) (b : Grid.cell) =
  a.f = b.f
  && Option.equal Int.equal a.t b.t
  && a.n = b.n
  && Fault_kind.equal a.kind b.kind
  && same_float a.rate b.rate
  && a.crashes = b.crashes
  && (a.crashes = 0
     || same_float a.crash_rate b.crash_rate && Persistence.equal a.persistence b.persistence)

(* The last cell printed on this domain. Its floats are most of a
   record's encoding cost, and consecutive records mostly share a cell:
   a pool consumes its trials in id order, chunk by chunk. *)
let last_cell = Domain.DLS.new_key (fun () -> None)

let cell_text cell =
  match Domain.DLS.get last_cell with
  | Some text when same_cell text.key cell -> text
  | Some _ | None ->
      let text = print_cell cell in
      Domain.DLS.set last_cell (Some text);
      text

(* The record straight into one buffer, in the schema's key order, with
   the leaf writers [Json.to_string] uses: the bytes of the record's
   JSON object. *)
let to_line (r : record) =
  let cell = cell_text r.cell in
  let b = Buffer.create 512 in
  Buffer.add_string b "{\"trial\":";
  Json.add_int b r.trial;
  Buffer.add_string b cell.head;
  (* decimal digits and a minus sign need no escape *)
  Buffer.add_char b '"';
  Buffer.add_string b (Int64.to_string r.seed);
  Buffer.add_string b "\",\"ok\":";
  Buffer.add_string b (Bool.to_string r.ok);
  Buffer.add_string b ",\"outcome\":";
  Json.add_string b (outcome_to_string r.outcome);
  Buffer.add_string b ",\"retries\":";
  Json.add_int b r.retries;
  Buffer.add_string b ",\"violations\":[";
  List.iteri
    (fun i v ->
      if i > 0 then Buffer.add_char b ',';
      Json.add_string b v)
    r.violations;
  Buffer.add_string b "],\"steps\":";
  Json.add_int b r.steps;
  Buffer.add_string b ",\"max_steps\":";
  Json.add_int b r.max_steps;
  Buffer.add_string b ",\"stage\":";
  Json.add_int b r.stage;
  Buffer.add_string b ",\"faults\":";
  Json.add_int b r.faults;
  Buffer.add_string b ",\"wall_us\":";
  Json.add_int b r.wall_us;
  if r.cell.Grid.crashes <> 0 then begin
    Buffer.add_string b cell.crash;
    Json.add_int b r.crash_faults
  end;
  (match r.witness with
  | None -> ()
  | Some w ->
      Buffer.add_string b ",\"witness\":[";
      Array.iteri
        (fun i d ->
          if i > 0 then Buffer.add_char b ',';
          Json.add_int b d)
        w;
      Buffer.add_char b ']');
  Buffer.add_char b '}';
  Buffer.contents b

(* ---- parsing ---- *)

(* Every key a record's checks read, in the order they read them. *)
let keys =
  [|
    "trial"; "f"; "t"; "n"; "kind"; "rate"; "seed"; "ok"; "outcome"; "retries"; "violations";
    "steps"; "max_steps"; "stage"; "faults"; "wall_us"; "crashes"; "crash_rate"; "persistence";
    "crash_faults"; "witness";
  |]

exception Malformed of string

(* A field's value through its projection: a key absent, or a value the
   projection refuses, is malformed. *)
let[@inline] field key project value =
  match Option.bind value project with
  | Some v -> v
  | None -> raise (Malformed (Fmt.str "journal record: missing or malformed %S" key))

(* A field older journals may lack: [default] when absent. *)
let[@inline] optional what project ~default = function
  | None -> default
  | Some j -> (
      match project j with
      | Some v -> v
      | None -> raise (Malformed ("journal record: malformed " ^ what)))

let non_negative j = match Json.get_int j with Some c when c >= 0 -> Some c | Some _ | None -> None

(* every item through [project] ([rev] those done so far), or [None] if
   one is refused *)
let rec all project rev = function
  | [] -> Some (List.rev rev)
  | item :: items -> (
      match project item with Some v -> all project (v :: rev) items | None -> None)

(* The checks, given the first value of each of [keys] (what
   [Json.member] would find in the line's object), in the order they
   read them: the first to fail names the error. *)
let of_values values =
  match values with
  | [|
   trial; f; t; n; kind; rate; seed; ok; outcome; retries; violations; steps; max_steps; stage;
   faults; wall_us; crashes; crash_rate; persistence; crash_faults; witness;
  |] ->
      let trial = field "trial" Json.get_int trial in
      let f = field "f" Json.get_int f in
      let t =
        field "t" (function Json.Null -> Some None | j -> Option.map Option.some (Json.get_int j)) t
      in
      let n = field "n" Json.get_int n in
      let kind = field "kind" (fun j -> Option.bind (Json.get_str j) Fault_kind.of_string) kind in
      let rate = field "rate" Json.get_float rate in
      let seed = field "seed" (fun j -> Option.bind (Json.get_str j) Int64.of_string_opt) seed in
      let ok = field "ok" Json.get_bool ok in
      (* Both supervision fields default for pre-supervision journals (PR 1-3):
         outcome is inferred from ok, retries from absence. *)
      let outcome =
        optional "outcome"
          (fun j -> Option.bind (Json.get_str j) outcome_of_string)
          ~default:(if ok then Pass else Violation)
          outcome
      in
      let retries = optional "retries" non_negative ~default:0 retries in
      let violations =
        field "violations" (fun j -> Option.bind (Json.get_list j) (all Json.get_str [])) violations
      in
      let steps = field "steps" Json.get_int steps in
      let max_steps = field "max_steps" Json.get_int max_steps in
      let stage = field "stage" Json.get_int stage in
      let faults = field "faults" Json.get_int faults in
      let wall_us = field "wall_us" Json.get_int wall_us in
      (* Crash fields default for crash-free records (and pre-recovery
         journals, which predate the crash axes entirely). *)
      let crashes = optional "crashes" non_negative ~default:0 crashes in
      let crash_rate = optional "crash_rate" Json.get_float ~default:0.0 crash_rate in
      let persistence =
        optional "persistence"
          (fun j ->
            Option.bind (Json.get_str j) (fun s -> Result.to_option (Persistence.of_string s)))
          ~default:Persistence.Persist_all persistence
      in
      let crash_faults = optional "crash_faults" non_negative ~default:0 crash_faults in
      let witness =
        optional "witness"
          (fun j ->
            Option.map (fun vs -> Some (Array.of_list vs))
              (Option.bind (Json.get_list j) (all Json.get_int [])))
          ~default:None witness
      in
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
  | _ -> invalid_arg "Journal.of_values: one value per key"

(* One pass over the line: the top-level object's known keys are matched
   in place and keep their first value; every other value is parsed and
   dropped at its depth. The checks run once the whole line has parsed,
   so a syntax error anywhere wins over a malformed field, as it does
   for the tree [Json.of_string] builds. A line that is not an object
   parses whole and has no fields. *)
let of_line line =
  let read c =
    match Json.members ~depth:0 c keys with
    | Some values -> values
    | None ->
        ignore (Json.value ~depth:0 c);
        Array.make (Array.length keys) None
  in
  match Json.parse line read with
  | Error m -> Error m
  | Ok values -> ( match of_values values with r -> Ok r | exception Malformed m -> Error m)

(* ---- append writer (shared by all worker domains) ---- *)

module Metrics = Ffault_telemetry.Metrics
module Tracer = Ffault_telemetry.Tracer

let m_flushes = Metrics.counter "campaign.journal.flushes"

(* Records per group write: [Runner.run_tasks]'s default chunk, so on 2
   domains the last record of a consumed chunk completes a group. *)
let group_size = 64

(* [pending]: records in [oc]'s buffer since its last flush *)
type writer = { oc : out_channel; lock : Mutex.t; mutable pending : int }

let create_writer ~path =
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  { oc; lock = Mutex.create (); pending = 0 }

let locked w f =
  Mutex.lock w.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.lock) f

(* The group write; the caller holds [w.lock]. What a kill loses here,
   resume re-runs (see the contract in journal.mli). *)
let write_pending w =
  if w.pending > 0 then begin
    Tracer.with_span ~cat:"journal" "journal.flush" (fun () -> Stdlib.flush w.oc);
    w.pending <- 0;
    Metrics.incr m_flushes
  end

let append w r =
  locked w (fun () ->
      Tracer.with_span ~cat:"journal" "journal.append" (fun () ->
          output_string w.oc (to_line r);
          output_char w.oc '\n';
          w.pending <- w.pending + 1;
          if w.pending >= group_size then write_pending w))

let flush w = locked w (fun () -> write_pending w)

let close_writer w =
  locked w (fun () ->
      write_pending w;
      close_out w.oc)

(* ---- crash recovery ---- *)

type recovery = { dropped_bytes : int; interior_torn : int; warning : string option }

let clean = { dropped_bytes = 0; interior_torn = 0; warning = None }

(* Malformed newline-terminated lines. A crash can only tear the final
   line (appends are sequential, so what reached the file is a prefix
   of the written bytes, even where the channel wrote out a full buffer
   mid-line), so interior damage means something else — filesystem
   corruption, a concurrent writer, a hand-edited journal. [fold] skips
   such lines silently; recovery and the report's health section must
   not. *)
let count_interior_torn text =
  let torn = ref 0 in
  let next = ref 0 in
  let len = String.length text in
  while !next < len do
    match String.index_from_opt text !next '\n' with
    | None -> next := len (* unterminated tail: judged separately *)
    | Some nl ->
        let line = String.trim (String.sub text !next (nl - !next)) in
        if line <> "" && Result.is_error (of_line line) then incr torn;
        next := nl + 1
  done;
  !torn

(* A campaign killed mid-write leaves a torn final line: the bytes that
   reached the file are a prefix of the records written, and a group
   write, or a full channel buffer written out mid-line, can stop inside
   a record. Left in place, the next resume's append-mode writer would
   concatenate its first record onto the torn bytes, silently corrupting
   BOTH records for every later reader — so resume must repair the tail
   before reopening the file for append. A torn line that still parses
   just lost its newline and is completed; anything else is dropped (the
   checkpoint scan then re-runs that trial). *)
let recover ~path =
  if not (Sys.file_exists path) then clean
  else
    let text = In_channel.with_open_bin path In_channel.input_all in
    let len = String.length text in
    if len = 0 then clean
    else
      let interior_torn = count_interior_torn text in
      let interior_warning =
        if interior_torn = 0 then None
        else
          Some
            (Fmt.str
               "journal %s: %d interior record(s) do not parse — not crash damage \
                (appends are sequential); their trials will be re-run, but the file \
                deserves a look"
               path interior_torn)
      in
      let combine tail_warning =
        match interior_warning, tail_warning with
        | None, w | w, None -> w
        | Some a, Some b -> Some (a ^ "; " ^ b)
      in
      let tail_start =
        match String.rindex_opt text '\n' with Some i -> i + 1 | None -> 0
      in
      if tail_start >= len then
        (* newline-terminated: no torn tail *)
        { clean with interior_torn; warning = combine None }
      else
        let tail = String.sub text tail_start (len - tail_start) in
        match of_line (String.trim tail) with
        | Ok _ ->
            (* complete record, torn newline: finish the line *)
            Out_channel.with_open_gen [ Open_append; Open_wronly ] 0o644 path
              (fun oc -> output_char oc '\n');
            {
              dropped_bytes = 0;
              interior_torn;
              warning =
                combine
                  (Some
                     (Fmt.str
                        "journal %s: final record was missing its newline (crash \
                         mid-append); repaired"
                        path));
            }
        | Error _ ->
            let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
            Fun.protect
              ~finally:(fun () -> Unix.close fd)
              (fun () -> Unix.ftruncate fd tail_start);
            {
              dropped_bytes = len - tail_start;
              interior_torn;
              warning =
                combine
                  (Some
                     (Fmt.str
                        "journal %s: dropped a torn %d-byte partial trailing record \
                         (crash mid-append); its trial will be re-run"
                        path (len - tail_start)));
            }

(* ---- health ---- *)

type health = { h_lines : int; h_parsed : int; h_malformed : int }

let healthy = { h_lines = 0; h_parsed = 0; h_malformed = 0 }

let health ~path =
  if not (Sys.file_exists path) then healthy
  else
    In_channel.with_open_text path (fun ic ->
        let rec go h =
          match In_channel.input_line ic with
          | None -> h
          | Some line ->
              let line = String.trim line in
              if line = "" then go h
              else
                let h = { h with h_lines = h.h_lines + 1 } in
                go
                  (match of_line line with
                  | Ok _ -> { h with h_parsed = h.h_parsed + 1 }
                  | Error _ -> { h with h_malformed = h.h_malformed + 1 })
        in
        go healthy)

(* ---- reading ---- *)

let fold ~path ~init ~f =
  if not (Sys.file_exists path) then init
  else
    In_channel.with_open_text path (fun ic ->
        let rec go acc =
          match In_channel.input_line ic with
          | None -> acc
          | Some line ->
              let line = String.trim line in
              if line = "" then go acc
              else (
                (* tolerate a torn trailing line from a killed run *)
                match of_line line with Ok r -> go (f acc r) | Error _ -> go acc)
        in
        go init)

let load ~path = List.rev (fold ~path ~init:[] ~f:(fun acc r -> r :: acc))

let count ~path = fold ~path ~init:0 ~f:(fun acc _ -> acc + 1)
