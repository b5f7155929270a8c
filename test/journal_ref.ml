(* Test-only reference record printer: [Journal.to_json] as it stood
   before the journal printed its records straight into a buffer, here
   building a [Json_ref] tree. The differential tests in
   test_printers.ml hold [Journal.to_line] to [Json_ref.to_string] of
   this tree. Never linked into lib/. *)

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
