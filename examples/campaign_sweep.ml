(* Campaign sweep: declare an f × t grid over the Fig. 3 protocol, run
   it through the parallel campaign engine, kill it halfway, resume, and
   read the report — the full artifact lifecycle in one sitting.

     dune exec examples/campaign_sweep.exe

   Everything lands under _campaigns/fig3-sweep-example/: a manifest
   (the spec), a JSONL journal (one line per trial, written out in
   groups of 64 — the durable source of truth), and report.md/
   report.json. *)

module Campaign = Ffault_campaign
module Spec = Campaign.Spec
module Pool = Campaign.Pool
module Checkpoint = Campaign.Checkpoint
module Journal = Campaign.Journal
module Report = Campaign.Report

let root = "_campaigns"

let spec =
  (* The same grid you'd write in a spec file:
       name     = fig3-sweep-example
       protocol = fig3
       f        = 1..3
       t        = 1,2
       n        = 4
       kinds    = overriding
       rates    = 0.4
       trials   = 50
     or pass as flags to `ffault campaign run`. *)
  Spec.v ~name:"fig3-sweep-example" ~protocol:"fig3" ~f:[ 1; 2; 3 ]
    ~t:[ Some 1; Some 2 ] ~n:[ 4 ] ~rates:[ 0.4 ] ~trials:50 ~seed:31337L ()

let dir = Checkpoint.campaign_dir ~root spec

let rm_rf d =
  if Sys.file_exists d then ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; d ]))

let () =
  rm_rf dir;
  Fmt.pr "== 1. run the campaign ==@.%a@.@." Spec.pp spec;
  (match Pool.run_dir ~domains:2 ~root spec with
  | Error m -> failwith m
  | Ok s -> Fmt.pr "%a@.@." Pool.pp_summary s);

  (* Simulate a mid-run kill: throw away the tail of the journal. A real
     interruption (Ctrl-C, OOM) leaves exactly this state — the records
     written out before the kill, possibly plus one torn line, which
     resume repairs. *)
  Fmt.pr "== 2. simulate a kill: truncate the journal to 100 records ==@.";
  let path = Checkpoint.journal_path ~dir in
  let keep =
    In_channel.with_open_text path In_channel.input_lines
    |> List.filteri (fun i _ -> i < 100)
  in
  Out_channel.with_open_text path (fun oc ->
      List.iter (fun l -> Out_channel.output_string oc (l ^ "\n")) keep);
  Fmt.pr "journal now holds %d records@.@." (Journal.count ~path);

  (* Resume: the manifest defines the grid, the journal says which trial
     ids are done; only the missing 200 run. Trial outcomes depend only
     on (spec, trial id), so the repaired journal is indistinguishable
     from an uninterrupted run. *)
  Fmt.pr "== 3. resume ==@.";
  (match Pool.run_dir ~domains:2 ~resume:true ~root spec with
  | Error m -> failwith m
  | Ok s -> Fmt.pr "%a@.@." Pool.pp_summary s);
  Fmt.pr "journal now holds %d records@.@." (Journal.count ~path);

  Fmt.pr "== 4. report ==@.";
  match Report.of_dir ~dir with
  | Error m -> failwith m
  | Ok report ->
      Report.write ~dir report;
      Fmt.pr "%s@." (Report.to_markdown report);
      Fmt.pr "artifacts: %s/{manifest.json,journal.jsonl,report.md,report.json}@." dir
