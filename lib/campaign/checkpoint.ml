let manifest_file = "manifest.json"
let journal_file = "journal.jsonl"
let telemetry_file = "telemetry.json"
let workers_file = "workers.json"
let owner_file = "owner.json"

let manifest_path ~dir = Filename.concat dir manifest_file
let journal_path ~dir = Filename.concat dir journal_file
let telemetry_path ~dir = Filename.concat dir telemetry_file
let workers_path ~dir = Filename.concat dir workers_file
let owner_path ~dir = Filename.concat dir owner_file
let campaign_dir ~root spec = Filename.concat root spec.Spec.name

let rec mkdir_p dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Write-then-rename: a reader (or a post-SIGKILL `campaign report`)
   sees either the old file or the new one, never a torn prefix. The
   temp file lives in the same directory so the rename stays within one
   filesystem. *)
let write_atomic ~path content =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path) ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc content);
    Unix.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e

let save_manifest ~dir spec =
  mkdir_p dir;
  write_atomic ~path:(manifest_path ~dir)
    (Json.to_string (Spec.to_json spec) ^ "\n")

let load_manifest ~dir =
  let path = manifest_path ~dir in
  if not (Sys.file_exists path) then Error (Fmt.str "no campaign manifest at %s" path)
  else
    match In_channel.with_open_text path In_channel.input_all with
    | text -> Result.bind (Json.of_string (String.trim text)) Spec.of_json
    | exception Sys_error m -> Error m

(* ---- journal ownership (coordinator incarnations) ---- *)

let load_epoch ~dir =
  match In_channel.with_open_text (owner_path ~dir) In_channel.input_all with
  | text -> (
      match Json.of_string (String.trim text) with
      | Ok j -> (
          match Option.bind (Json.member "epoch" j) Json.get_int with
          | Some e when e > 0 -> e
          | Some _ | None -> 0)
      | Error _ -> 0)
  | exception Sys_error _ -> 0

(* Epochs are strictly increasing across incarnations and start at 1;
   an unreadable or torn owner file counts as epoch 0 (never owned), so
   a first claim after corruption still fences every older grant. The
   write is atomic — a crash mid-claim leaves the previous owner file,
   and the next claim bumps past it again. *)
let claim_ownership ~dir =
  mkdir_p dir;
  let epoch = load_epoch ~dir + 1 in
  write_atomic ~path:(owner_path ~dir)
    (Json.to_string
       (Json.Obj
          [
            ("version", Json.Int 1);
            ("epoch", Json.Int epoch);
            ("pid", Json.Int (Unix.getpid ()));
            ("claimed_at", Json.Float (Unix.gettimeofday ()));
          ])
    ^ "\n");
  epoch

(* ---- resume state ---- *)

type t = { mask : Bytes.t; total : int; mutable completed : int }

let fresh ~total = { mask = Bytes.make ((total + 7) / 8) '\000'; total; completed = 0 }

let is_done st id =
  id >= 0 && id < st.total
  && Char.code (Bytes.get st.mask (id lsr 3)) land (1 lsl (id land 7)) <> 0

let mark st id =
  if id >= 0 && id < st.total && not (is_done st id) then begin
    Bytes.set st.mask (id lsr 3)
      (Char.chr (Char.code (Bytes.get st.mask (id lsr 3)) lor (1 lsl (id land 7))));
    st.completed <- st.completed + 1
  end

let completed st = st.completed

(* From the top id down, so the ranges cons up in ascending order. *)
let remaining st =
  let rec bottom lo = if lo > 0 && not (is_done st (lo - 1)) then bottom (lo - 1) else lo in
  let rec ranges hi acc =
    if hi = 0 then acc
    else if is_done st (hi - 1) then ranges (hi - 1) acc
    else
      let lo = bottom (hi - 1) in
      ranges lo ((lo, hi) :: acc)
  in
  ranges st.total []

(* Repair a crash-torn journal tail before any append-mode writer
   reopens the file, or the first new record would concatenate onto the
   torn bytes and corrupt both; then replay the journal into a done-mask
   in one pass. Every line then ends in a newline, so the lines that do
   not parse are interior damage, which a crash cannot cause: [on_warn]
   hears of both findings at once. *)
let resume_scan ~on_warn ~dir ~total =
  let path = journal_path ~dir in
  let tail = (Journal.recover ~path).Journal.warning in
  let st = fresh ~total in
  let (), h = Journal.scan ~path ~init:() ~f:(fun () r -> mark st r.Journal.trial) in
  (match h.Journal.h_malformed with
  | 0 -> Option.iter on_warn tail
  | n ->
      let interior =
        Fmt.str
          "journal %s: %d interior record(s) do not parse — not crash damage (appends are \
           sequential); their trials will be re-run, but the file deserves a look"
          path n
      in
      on_warn (match tail with None -> interior | Some w -> interior ^ "; " ^ w));
  st

(* The shared open/resume protocol of every campaign executor (the
   in-process pool and the distributed coordinator): manifest guard,
   torn-tail repair, journal replay, and the resumed trials announced
   before the first new one. *)
let open_campaign ?(resume = false) ?(on_skip = fun () -> ()) ?(on_warn = fun _ -> ())
    ~root spec =
  let ( let* ) = Result.bind in
  let dir = campaign_dir ~root spec in
  let manifest_exists = Sys.file_exists (manifest_path ~dir) in
  let* () =
    if manifest_exists && not resume then
      Error
        (Fmt.str "campaign %S already exists under %s (use resume, or pick a new name)"
           spec.Spec.name root)
    else Ok ()
  in
  let* () =
    if not manifest_exists then begin
      save_manifest ~dir spec;
      Ok ()
    end
    else
      let* recorded = load_manifest ~dir in
      if Spec.equal recorded spec then Ok ()
      else Error (Fmt.str "manifest under %s disagrees with the spec; refusing to resume" dir)
  in
  let total = Grid.total_trials spec in
  let st = if resume then resume_scan ~on_warn ~dir ~total else fresh ~total in
  for _ = 1 to st.completed do
    on_skip ()
  done;
  Ok (dir, st)
