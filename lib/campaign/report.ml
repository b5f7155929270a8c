module Table = Ffault_stats.Table
module Summary = Ffault_stats.Summary
module Classify = Ffault_hoare.Classify

type cell_stats = {
  cell : Grid.cell;
  in_envelope : bool;
  trials : int;
  failures : int;
  failure_rate : float;
  timeouts : int;
  quarantined : int;
  retries : int;
  steps : Summary.t;  (** per-trial worst per-process operation count *)
  total_faults : int;
  total_crashes : int;  (** crash-restarts charged across the cell's trials *)
  attr_crash_only : int;
      (** violating trials whose only charged faults were crash-restarts *)
  attr_primitive_only : int;
      (** violating trials with primitive faults but no crash *)
  attr_mixed : int;  (** violating trials with both *)
  min_witness : (int * int array) option Lazy.t;
  mean_wall_us : float;
}

type health = {
  timeouts : int;
  quarantined : int;
  retries : int;
  degraded_cells : string list;
  journal : Journal.health option;
}

type t = {
  spec : Spec.t;
  cells : cell_stats list;  (** grid order; cells with no records omitted *)
  total_trials : int;
  total_failures : int;
  health : health;
  telemetry : Json.t option;  (** last run's metrics snapshot, if journaled *)
  workers : Json.t option;  (** [workers.json] from a distributed run *)
}

(* ---- aggregation ---- *)

type acc = {
  mutable a_trials : int;
  mutable a_failures : int;
  mutable a_timeouts : int;
  mutable a_quarantined : int;
  mutable a_retries : int;
  a_steps : Summary.t;
  mutable a_faults : int;
  mutable a_crashes : int;
  mutable a_attr_crash : int;
  mutable a_attr_prim : int;
  mutable a_attr_mixed : int;
  mutable a_first : (int * int array) list;
      (* the witnesses of the cell's [first_failures] lowest-id
         violations, by ascending id *)
  mutable a_rest : (int * int array) option;  (* the best raw witness of the others *)
  mutable a_wall : float;
}

(* A cell's first failures get minimized: K of them, lowest trial ids
   first, so the report is a function of the records, whatever their
   order and whichever executor journaled them. *)
let first_failures = Pool.default_max_shrinks_per_cell

(* The shorter witness wins, the lower trial id on ties. *)
let best a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some (i, w), Some (j, v) ->
      let l = Array.length w and m = Array.length v in
      if l < m || (l = m && i < j) then a else b

(* Keep [(id, w)] among the cell's first failures if its id is low
   enough; whatever that displaces competes raw. *)
let add_witness a (id, w) =
  let first = List.sort (fun (i, _) (j, _) -> compare i j) ((id, w) :: a.a_first) in
  if List.length first <= first_failures then a.a_first <- first
  else begin
    a.a_first <- List.filteri (fun i _ -> i < first_failures) first;
    a.a_rest <- best a.a_rest (Some (List.nth first first_failures))
  end

let of_records ?telemetry ?workers spec iter =
  let protocol =
    match Spec.resolve_protocol spec.Spec.protocol with
    | Ok p -> Some p
    | Error _ -> None
  in
  let cells = Grid.cells spec in
  let n_cells = Array.length cells in
  let accs =
    Array.init n_cells (fun _ ->
        {
          a_trials = 0;
          a_failures = 0;
          a_timeouts = 0;
          a_quarantined = 0;
          a_retries = 0;
          a_steps = Summary.create ();
          a_faults = 0;
          a_crashes = 0;
          a_attr_crash = 0;
          a_attr_prim = 0;
          a_attr_mixed = 0;
          a_first = [];
          a_rest = None;
          a_wall = 0.0;
        })
  in
  let total = ref 0 in
  let total_failures = ref 0 in
  iter
    (fun (r : Journal.record) ->
      let cell_id = r.Journal.trial / spec.Spec.trials in
      if cell_id >= 0 && cell_id < n_cells then begin
        let a = accs.(cell_id) in
        a.a_trials <- a.a_trials + 1;
        incr total;
        (* [ok = false] is not [failure]: a Timeout is a harness verdict
           and a Quarantined trial never ran — neither says anything
           about the protocol, so neither belongs in the failure rate. *)
        (match r.Journal.outcome with
        | Journal.Violation -> (
            a.a_failures <- a.a_failures + 1;
            incr total_failures;
            Option.iter (fun w -> add_witness a (r.Journal.trial, w)) r.Journal.witness;
            (* Attribute each violation to the fault dimensions that were
               actually charged in the violating run: crash-restarts,
               primitive faults, or both. *)
            match
              Classify.attribute ~crashes:r.Journal.crash_faults
                ~primitive:r.Journal.faults
            with
            | Classify.Crash_only -> a.a_attr_crash <- a.a_attr_crash + 1
            | Classify.Primitive_only -> a.a_attr_prim <- a.a_attr_prim + 1
            | Classify.Mixed -> a.a_attr_mixed <- a.a_attr_mixed + 1
            | Classify.No_fault -> ())
        | Journal.Timeout -> a.a_timeouts <- a.a_timeouts + 1
        | Journal.Quarantined -> a.a_quarantined <- a.a_quarantined + 1
        | Journal.Pass -> ());
        a.a_retries <- a.a_retries + r.Journal.retries;
        if r.Journal.outcome <> Journal.Quarantined then begin
          (* quarantined trials never executed; their zero step counts
             would drag every ops statistic toward zero *)
          Summary.add a.a_steps r.Journal.max_steps;
          a.a_faults <- a.a_faults + r.Journal.faults;
          a.a_crashes <- a.a_crashes + r.Journal.crash_faults;
          a.a_wall <- a.a_wall +. float_of_int r.Journal.wall_us
        end
      end);
  (* A witness that does not minimize, or a protocol that does not
     resolve, keeps the raw vector. *)
  let minimized cell (id, w) =
    match Option.bind protocol (fun p -> Shrink_on_fail.minimize (Grid.setup cell p) w) with
    | Some (m, _) -> Some (id, m)
    | None -> Some (id, w)
  in
  let cell_stats =
    List.filter_map
      (fun cell_id ->
        let a = accs.(cell_id) in
        if a.a_trials = 0 then None
        else
          let cell = cells.(cell_id) in
          let ran = a.a_trials - a.a_quarantined in
          let min_witness =
            lazy
              (List.fold_left (fun acc x -> best acc (minimized cell x)) a.a_rest a.a_first)
          in
          Some
            {
              cell;
              in_envelope =
                (match protocol with Some p -> Grid.in_envelope cell p | None -> false);
              trials = a.a_trials;
              failures = a.a_failures;
              failure_rate = float_of_int a.a_failures /. float_of_int a.a_trials;
              timeouts = a.a_timeouts;
              quarantined = a.a_quarantined;
              retries = a.a_retries;
              steps = a.a_steps;
              total_faults = a.a_faults;
              total_crashes = a.a_crashes;
              attr_crash_only = a.a_attr_crash;
              attr_primitive_only = a.a_attr_prim;
              attr_mixed = a.a_attr_mixed;
              min_witness;
              mean_wall_us = (if ran = 0 then 0.0 else a.a_wall /. float_of_int ran);
            })
      (List.init n_cells Fun.id)
  in
  let health =
    {
      timeouts = List.fold_left (fun s (c : cell_stats) -> s + c.timeouts) 0 cell_stats;
      quarantined =
        List.fold_left (fun s (c : cell_stats) -> s + c.quarantined) 0 cell_stats;
      retries = List.fold_left (fun s (c : cell_stats) -> s + c.retries) 0 cell_stats;
      degraded_cells =
        List.filter_map
          (fun (c : cell_stats) ->
            if c.quarantined > 0 then Some (Grid.cell_key c.cell) else None)
          cell_stats;
      journal = None;
    }
  in
  {
    spec;
    cells = cell_stats;
    total_trials = !total;
    total_failures = !total_failures;
    health;
    telemetry;
    workers;
  }

(* [workers.json] parses like [telemetry.json]: best-effort, [None] on
   absent or unparsable (single-process campaigns never write one). *)
let load_workers ~dir =
  let path = Checkpoint.workers_path ~dir in
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error _ -> None
    | contents -> (
        match Json.of_string (String.trim contents) with
        | Ok j -> Some j
        | Error _ -> None)

let of_dir ~dir =
  match Checkpoint.load_manifest ~dir with
  | Error _ as e -> e
  | Ok spec ->
      (* one pass over the journal: the records and the file's health *)
      let journal = ref None in
      let report =
        of_records ?telemetry:(Telemetry_io.load ~dir) ?workers:(load_workers ~dir) spec
          (fun step ->
            let (), health =
              Journal.scan ~path:(Checkpoint.journal_path ~dir) ~init:() ~f:(fun () r ->
                  step r)
            in
            journal := Some health)
      in
      Ok { report with health = { report.health with journal = !journal } }

(* ---- rendering ---- *)

(* Minimizes the cell's first witnesses on first use: only a rendered
   report reads them. *)
let min_witness_len c =
  Option.map (fun (_, w) -> Array.length w) (Lazy.force c.min_witness)

(* A step statistic of the cell's trials that ran: [None] when none did
   (every record quarantined), rendered [-] and [null]. *)
let ops c stat = if Summary.count c.steps = 0 then None else Some (stat c.steps)
let p99 s = Summary.percentile s 99.0

let to_table report =
  (* Crash columns only appear on campaigns that sweep a crash axis, so
     crash-free reports keep their historical shape byte-for-byte. *)
  let crashing = Spec.has_crash_axes report.spec in
  let crash_columns =
    if crashing then [ "crashes"; "crash rate"; "persist"; "crash faults"; "attribution" ]
    else []
  in
  let table =
    Table.create
      ~columns:
        ([
           "f"; "t"; "n"; "kind"; "rate"; "envelope"; "trials"; "failures"; "fail rate";
           "mean ops"; "p99 ops"; "max ops"; "faults"; "min witness";
         ]
        @ crash_columns)
  in
  List.iter
    (fun c ->
      let crash_cells =
        if not crashing then []
        else
          [
            Table.cell_int c.cell.Grid.crashes;
            Table.cell_float ~decimals:2 c.cell.Grid.crash_rate;
            Ffault_recover.Persistence.to_string c.cell.Grid.persistence;
            Table.cell_int c.total_crashes;
            (* which fault dimension the cell's violations charge:
               c = crash-only, p = primitive-only, m = mixed *)
            (if c.failures = 0 then "-"
             else
               Fmt.str "%dc/%dp/%dm" c.attr_crash_only c.attr_primitive_only
                 c.attr_mixed);
          ]
      in
      Table.add_row table
        ([
           Table.cell_int c.cell.Grid.f;
           Table.cell_opt Table.cell_int c.cell.Grid.t;
           Table.cell_int c.cell.Grid.n;
           Ffault_fault.Fault_kind.to_string c.cell.Grid.kind;
           Table.cell_float ~decimals:2 c.cell.Grid.rate;
           (if c.in_envelope then "in" else "out");
           Table.cell_int c.trials;
           (* (!!) marks theorem violations: failures in a cell the proof
              covers. Out-of-envelope failures are expected data. *)
           (if c.failures = 0 then "0"
            else if c.in_envelope then Fmt.str "%d (!!)" c.failures
            else Table.cell_int c.failures);
           Table.cell_float ~decimals:4 c.failure_rate;
           Table.cell_opt (Table.cell_float ~decimals:1) (ops c Summary.mean);
           Table.cell_opt (Table.cell_float ~decimals:0) (ops c p99);
           Table.cell_opt (Table.cell_float ~decimals:0) (ops c Summary.max_value);
           Table.cell_int c.total_faults;
           Table.cell_opt Table.cell_int (min_witness_len c);
         ]
        @ crash_cells))
    report.cells;
  table

(* The counters section of the embedded telemetry snapshot, as a small
   markdown table (histograms and gauges stay JSON-only — the counters
   are what a human scans for "did the faults actually fire"). *)
let telemetry_markdown json =
  match Option.bind json (Json.member "counters") with
  | Some (Json.Obj ((_ :: _) as counters)) ->
      let t = Table.create ~columns:[ "counter"; "value" ] in
      List.iter
        (fun (name, v) ->
          Table.add_row t [ name; (match Json.get_int v with Some i -> Table.cell_int i | None -> "?") ])
        counters;
      Fmt.str "@.## Telemetry@.@.%s" (Table.to_string t)
  | _ -> ""

(* The Workers section of a distributed campaign ([workers.json]):
   per-worker lease and result counts, plus the lease ledger line that
   shows whether any shard had to be reassigned. Absent on
   single-process campaigns, so their reports keep the old shape. *)
let workers_markdown json =
  let int_of name j = Option.bind (Json.member name j) Json.get_int in
  let str_of name j =
    match Option.bind (Json.member name j) Json.get_str with Some s -> s | None -> "?"
  in
  let cell name j =
    match int_of name j with Some i -> Table.cell_int i | None -> "?"
  in
  match Option.bind json (Json.member "workers") with
  | Some (Json.List ((_ :: _) as workers)) ->
      let t =
        Table.create
          ~columns:
            [
              "worker"; "peer"; "domains"; "leases"; "completed"; "expired"; "results";
              "deduped"; "reconnects";
            ]
      in
      List.iter
        (fun w ->
          Table.add_row t
            [
              str_of "name" w;
              str_of "peer" w;
              cell "domains" w;
              cell "granted" w;
              cell "completed" w;
              cell "expired" w;
              cell "results" w;
              cell "deduped" w;
              cell "reconnects" w;
            ])
        workers;
      let leases =
        match Option.bind json (Json.member "leases") with
        | Some l ->
            let n name = match int_of name l with Some i -> i | None -> 0 in
            let expired = n "expired" in
            Fmt.str "%d lease(s) granted, %d completed, %d expired%s.@.@."
              (n "granted") (n "completed") expired
              (if expired > 0 then " and reassigned" else "")
        | None -> ""
      in
      (* coordinator incarnation (workers.json with epoch fencing):
         anything past epoch 1 means the coordinator crashed and a
         restart recovered the campaign from the journal — worth a line
         in the human report. Absent on older artifacts. *)
      let incarnation =
        match Option.bind json (int_of "epoch") with
        | Some epoch when epoch > 1 ->
            let restarts =
              match Option.bind json (int_of "restarts") with Some r -> r | None -> epoch - 1
            in
            Fmt.str
              "Coordinator epoch %d: %d restart(s) recovered from the journal.@.@."
              epoch restarts
        | _ -> ""
      in
      (* fleet-wide counters (workers.json v2): per-worker snapshots
         summed by the coordinator — absent on pre-observability
         artifacts, and then so is this table *)
      let fleet =
        match Option.bind json (Json.member "fleet") with
        | Some (Json.Obj ((_ :: _) as counters)) ->
            let ft = Table.create ~columns:[ "counter"; "fleet total" ] in
            List.iter
              (fun (name, v) ->
                Table.add_row ft
                  [ name; (match Json.get_int v with Some i -> Table.cell_int i | None -> "?") ])
              counters;
            Fmt.str "@.### Fleet telemetry@.@.%s" (Table.to_string ft)
        | _ -> ""
      in
      Fmt.str "@.## Workers@.@.%s%s%s%s" incarnation leases (Table.to_string t) fleet
  | _ -> ""

(* Rendered only when there is something to say: an all-healthy
   unsupervised campaign keeps the old report shape byte-for-byte. *)
let health_markdown report =
  let h = report.health in
  let journal_note =
    match h.journal with
    | Some j when j.Journal.h_malformed > 0 ->
        Fmt.str
          "- journal: %d of %d line(s) malformed — not crash damage (appends are \
           sequential); those trials re-run on resume, but the file deserves a look@."
          j.Journal.h_malformed j.Journal.h_lines
    | _ -> ""
  in
  if h.timeouts = 0 && h.quarantined = 0 && h.retries = 0 && journal_note = "" then ""
  else
    Fmt.str
      "@.## Health@.@.- %d trial(s) timed out at the deadline@.- %d retry attempt(s)@.- \
       %d trial(s) quarantined%s@.%s"
      h.timeouts h.retries h.quarantined
      (match h.degraded_cells with
      | [] -> ""
      | cells -> Fmt.str " (degraded cells: %s)" (String.concat ", " cells))
      journal_note

let to_markdown report =
  Fmt.str "# Campaign %s@.@.%a@.@.%d trials journaled, %d failures.@.@.%s@.%s%s%s"
    report.spec.Spec.name Spec.pp report.spec report.total_trials report.total_failures
    (Table.to_string (to_table report))
    (health_markdown report)
    (workers_markdown report.workers)
    (telemetry_markdown report.telemetry)

let health_json h =
  Json.Obj
    ([
       ("timeouts", Json.Int h.timeouts);
       ("retries", Json.Int h.retries);
       ("quarantined", Json.Int h.quarantined);
       ("degraded_cells", Json.List (List.map (fun k -> Json.Str k) h.degraded_cells));
     ]
    @
    match h.journal with
    | None -> []
    | Some j ->
        [
          ( "journal",
            Json.Obj
              [
                ("lines", Json.Int j.Journal.h_lines);
                ("parsed", Json.Int j.Journal.h_parsed);
                ("malformed", Json.Int j.Journal.h_malformed);
              ] );
        ])

let ops_json c stat = match ops c stat with Some x -> Json.Float x | None -> Json.Null

let to_json report =
  Json.Obj
    ([
       ("spec", Spec.to_json report.spec);
       ("total_trials", Json.Int report.total_trials);
       ("total_failures", Json.Int report.total_failures);
       ("health", health_json report.health);
     ]
    @ (match report.telemetry with Some t -> [ ("telemetry", t) ] | None -> [])
    @ (match report.workers with Some w -> [ ("workers", w) ] | None -> [])
    @ [
      ( "cells",
        Json.List
          (List.map
             (fun c ->
               Json.Obj
                 ([
                    ("key", Json.Str (Grid.cell_key c.cell));
                    ("in_envelope", Json.Bool c.in_envelope);
                    ("trials", Json.Int c.trials);
                    ("failures", Json.Int c.failures);
                    ("failure_rate", Json.Float c.failure_rate);
                    ("timeouts", Json.Int c.timeouts);
                    ("quarantined", Json.Int c.quarantined);
                    ("retries", Json.Int c.retries);
                    ("mean_ops", ops_json c Summary.mean);
                    ("p99_ops", ops_json c p99);
                    ("max_ops", ops_json c Summary.max_value);
                    ("faults", Json.Int c.total_faults);
                    ( "min_witness_len",
                      match min_witness_len c with
                      | Some l -> Json.Int l
                      | None -> Json.Null );
                    ( "min_witness",
                      match Lazy.force c.min_witness with
                      | Some (trial, w) ->
                          Json.Obj
                            [
                              ("trial", Json.Int trial);
                              ( "witness",
                                Json.List (Array.to_list (Array.map (fun d -> Json.Int d) w)) );
                            ]
                      | None -> Json.Null );
                    ("mean_wall_us", Json.Float c.mean_wall_us);
                  ]
                 @
                 if not (Spec.has_crash_axes report.spec) then []
                 else
                   [
                     ("crashes", Json.Int c.cell.Grid.crashes);
                     ("crash_rate", Json.Float c.cell.Grid.crash_rate);
                     ( "persistence",
                       Json.Str
                         (Ffault_recover.Persistence.to_string c.cell.Grid.persistence) );
                     ("crash_faults", Json.Int c.total_crashes);
                     ("attr_crash_only", Json.Int c.attr_crash_only);
                     ("attr_primitive_only", Json.Int c.attr_primitive_only);
                     ("attr_mixed", Json.Int c.attr_mixed);
                   ]))
             report.cells) );
      ])

let write ~dir report =
  Out_channel.with_open_text (Filename.concat dir "report.md") (fun oc ->
      output_string oc (to_markdown report));
  Out_channel.with_open_text (Filename.concat dir "report.json") (fun oc ->
      output_string oc (Json.to_string (to_json report));
      output_char oc '\n')

(* ---- regression diff ---- *)

type diff_row = {
  key : string;
  rate_a : float;
  rate_b : float;
  delta : float;
  steps_a : float option;
  steps_b : float option;
  regression : bool;
}

type diff = {
  rows : diff_row list;
  regressions : int;
  only_a : string list;
  only_b : string list;
}

let default_tolerance = 0.02

let diff ?(tolerance = default_tolerance) a b =
  let index report =
    List.map (fun c -> (Grid.cell_key c.cell, c)) report.cells
  in
  let ia = index a and ib = index b in
  let rows =
    List.filter_map
      (fun (key, ca) ->
        match List.assoc_opt key ib with
        | None -> None
        | Some cb ->
            let delta = cb.failure_rate -. ca.failure_rate in
            let regression =
              (* a newly-failing cell is always a regression; otherwise
                 the rate must move beyond the sampling tolerance *)
              (ca.failures = 0 && cb.failures > 0) || delta > tolerance
            in
            Some
              {
                key;
                rate_a = ca.failure_rate;
                rate_b = cb.failure_rate;
                delta;
                steps_a = ops ca Summary.mean;
                steps_b = ops cb Summary.mean;
                regression;
              })
      ia
  in
  let missing ia ib =
    List.filter_map
      (fun (key, _) -> if List.mem_assoc key ib then None else Some key)
      ia
  in
  {
    rows;
    regressions = List.length (List.filter (fun r -> r.regression) rows);
    only_a = missing ia ib;
    only_b = missing ib ia;
  }

let diff_table d =
  let table =
    Table.create
      ~columns:[ "cell"; "fail rate A"; "fail rate B"; "delta"; "mean ops A"; "mean ops B"; "verdict" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.key;
          Table.cell_float ~decimals:4 r.rate_a;
          Table.cell_float ~decimals:4 r.rate_b;
          Fmt.str "%+.4f" r.delta;
          Table.cell_opt (Table.cell_float ~decimals:1) r.steps_a;
          Table.cell_opt (Table.cell_float ~decimals:1) r.steps_b;
          (if r.regression then "REGRESSION" else "ok");
        ])
    d.rows;
  table

let pp_diff ppf d =
  Fmt.pf ppf "%s" (Table.to_string (diff_table d));
  List.iter (fun k -> Fmt.pf ppf "only in A: %s@." k) d.only_a;
  List.iter (fun k -> Fmt.pf ppf "only in B: %s@." k) d.only_b;
  if d.regressions = 0 then Fmt.pf ppf "No regressions.@."
  else Fmt.pf ppf "%d regression(s).@." d.regressions
