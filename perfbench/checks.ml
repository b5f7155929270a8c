(* Correctness of a campaign journal, checked after the process that
   wrote it has exited, so checking never counts toward measured time.

   A trial fails if it is not journaled exactly once, is journaled with
   another cell than its trial's, ends timed out or quarantined, or
   violates consensus in a cell the paper's theorems cover
   ([Grid.in_envelope]). Violations outside the envelope are
   expected data. Every journaled witness must replay to a violation.
   The digest covers the id-sorted records without [wall_us] and
   [witness], the only fields that depend on timing and on which
   failures won a cell's shrink budget. *)

module Campaign = Ffault_campaign
module Journal = Campaign.Journal
module Grid = Campaign.Grid
module Spec = Campaign.Spec
module Check = Ffault_verify.Consensus_check

type t = {
  total : int;  (** grid size *)
  failed : int;
  witnesses : int;  (** witnesses replayed *)
  bad_witnesses : int;  (** witnesses that did not replay to a violation *)
  digest : string;
}

(* A record's outcome fields as bytes: cheaper than rendering JSON, and
   equal exactly when the records agree outside [wall_us] and [witness]. *)
let canonical r =
  Marshal.to_string { r with Journal.wall_us = 0; witness = None } [ Marshal.No_sharing ]

let digest_of_lines lines =
  let b = Buffer.create (1 lsl 16) in
  Array.iter
    (fun l ->
      Buffer.add_string b (Option.value l ~default:"-");
      Buffer.add_char b '\n')
    lines;
  Digest.to_hex (Digest.string (Buffer.contents b))

let protocol_of spec =
  match Spec.resolve_protocol spec.Spec.protocol with
  | Ok p -> p
  | Error m -> invalid_arg m

(* The grid cell of a record's trial, with its checker setup and
   envelope verdict (memoized per cell). *)
let cell_facts spec =
  let protocol = protocol_of spec in
  let cells = Grid.cells spec in
  let facts =
    Array.map (fun c -> lazy (c, Grid.setup c protocol, Grid.in_envelope c protocol)) cells
  in
  fun r -> Lazy.force facts.((Grid.trial_of_cells spec cells r.Journal.trial).Grid.cell_id)

(* Witnesses of one spec already replayed, by trial. Replay is a pure
   function of the cell and the vector, so an identical witness from a
   later repetition of the same seed needs no second replay; only those
   that differ (which failures win a cell's shrink budget can vary with
   scheduling) are replayed again. *)
type replayed = (int, int array) Hashtbl.t

let journal ?(replayed : replayed = Hashtbl.create 0) spec ~path =
  let total = Grid.total_trials spec in
  let lines = Array.make total None in
  let facts = cell_facts spec in
  let extra = ref 0 and failed = ref 0 and witnesses = ref 0 and bad = ref 0 in
  Journal.fold ~path ~init:() ~f:(fun () r ->
      if r.Journal.trial < 0 || r.Journal.trial >= total || Option.is_some lines.(r.Journal.trial)
      then incr extra
      else begin
        lines.(r.Journal.trial) <- Some (canonical r);
        let cell, setup, in_envelope = facts r in
        if cell <> r.Journal.cell then incr failed;
        (match r.Journal.outcome with
        | Journal.Pass -> ()
        | Journal.Violation -> if in_envelope then incr failed
        | Journal.Timeout | Journal.Quarantined -> incr failed);
        match r.Journal.witness with
        | None -> ()
        | Some w -> (
            incr witnesses;
            let key = r.Journal.trial in
            match Hashtbl.find_opt replayed key with
            | Some known when known = w -> ()
            | _ ->
                if Check.ok (Campaign.Shrink_on_fail.replay setup w) then incr bad
                else Hashtbl.replace replayed key w)
      end);
  let missing = Array.fold_left (fun n l -> if Option.is_none l then n + 1 else n) 0 lines in
  {
    total;
    failed = !failed + missing + !extra;
    witnesses = !witnesses;
    bad_witnesses = !bad;
    digest = digest_of_lines lines;
  }

(* The digest of a campaign run in this process on one domain, without a
   journal: the reference the other same-record workloads must equal. *)
let reference_digest spec =
  let lines = Array.make (Grid.total_trials spec) None in
  ignore
    (Campaign.Pool.run_trials ~domains:1
       ~on_record:(fun r -> lines.(r.Journal.trial) <- Some (canonical r))
       spec);
  digest_of_lines lines

(* Several journals' digests as one. *)
let combine digests = Digest.to_hex (Digest.string (String.concat "," digests))
