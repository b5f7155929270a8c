module Table = Ffault_stats.Table
module Campaign = Ffault_campaign
module Persistence = Ffault_recover.Persistence

(* E15 rides the campaign engine exactly like E12: each protocol is one
   in-memory campaign over the CAS-fault-kind × crash-rate × persistence
   cross-product, aggregated by Campaign.Report — the same pipeline
   `ffault campaign run --crashes ...` (and the distributed serve/worker
   pair) produces, so the experiment and the CLI artifacts cannot drift. *)

let campaign_report spec =
  Campaign.Report.of_records spec (fun step ->
      ignore (Campaign.Pool.run_trials ~on_record:step spec))

(* The swept grid, per protocol: f = 0 rows are crash-only (an empty
   fault budget offers no primitive fault regardless of rate), f = 1
   rows cross primitive CAS faults with the crash schedule. *)
let spec ~name ~protocol ~trials ~seed =
  Campaign.Spec.v ~name ~protocol ~f:[ 0; 1 ] ~n:[ 2 ]
    ~kinds:[ Ffault_fault.Fault_kind.Overriding; Ffault_fault.Fault_kind.Silent ]
    ~rates:[ 0.5 ] ~crashes:[ 1 ] ~crash_rates:[ 0.0; 0.4 ]
    ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
    ~trials ~seed ()

let crash_only (c : Campaign.Report.cell_stats) =
  c.cell.Campaign.Grid.f = 0 && c.cell.Campaign.Grid.crash_rate > 0.0

let persist_all (c : Campaign.Report.cell_stats) =
  Persistence.equal c.cell.Campaign.Grid.persistence Persistence.Persist_all

let run ?(quick = false) ?(seed = 0xE15L) () =
  let trials = if quick then 150 else 600 in
  let reports =
    List.map
      (fun protocol ->
        ( protocol,
          campaign_report
            (spec ~name:(Fmt.str "e15-%s" protocol) ~protocol ~trials ~seed) ))
      [ "naive-tas"; "rec-tas"; "rec-cas" ]
  in
  let table =
    Table.create
      ~columns:
        [
          "protocol"; "f"; "kind"; "crash rate"; "persist"; "trials"; "failures";
          "fail rate"; "crash faults"; "attribution";
        ]
  in
  List.iter
    (fun (protocol, (report : Campaign.Report.t)) ->
      List.iter
        (fun (c : Campaign.Report.cell_stats) ->
          Table.add_row table
            [
              protocol;
              Table.cell_int c.cell.Campaign.Grid.f;
              Ffault_fault.Fault_kind.to_string c.cell.Campaign.Grid.kind;
              Table.cell_float ~decimals:2 c.cell.Campaign.Grid.crash_rate;
              Persistence.to_string c.cell.Campaign.Grid.persistence;
              Table.cell_int c.trials;
              Table.cell_int c.failures;
              Table.cell_float ~decimals:3 c.failure_rate;
              Table.cell_int c.total_crashes;
              (if c.failures = 0 then "-"
               else
                 Fmt.str "%dc/%dp/%dm" c.attr_crash_only c.attr_primitive_only
                   c.attr_mixed);
            ])
        report.Campaign.Report.cells)
    reports;
  let report_of p = List.assoc p reports in
  (* The headline separation: the naive baseline (no recovery section,
     restart = re-run the body from scratch) violates consensus on
     crash-only schedules under full persistence — a Linearize crash at
     the TAS orphans the win, the restarted winner sees the bit set,
     concludes it lost, and reads the other register — while both
     recoverable constructions stay clean on every crash-only cell. *)
  let naive_violates =
    List.exists
      (fun (c : Campaign.Report.cell_stats) ->
        crash_only c && persist_all c && c.failures > 0)
      (report_of "naive-tas").Campaign.Report.cells
  in
  let naive_crash_attributed =
    List.for_all
      (fun (c : Campaign.Report.cell_stats) ->
        (not (crash_only c))
        || (c.attr_primitive_only = 0 && c.attr_mixed = 0
           && c.attr_crash_only = c.failures))
      (report_of "naive-tas").Campaign.Report.cells
  in
  let recoverable_clean p =
    List.for_all
      (fun (c : Campaign.Report.cell_stats) ->
        c.cell.Campaign.Grid.f > 0 || c.failures = 0)
      (report_of p).Campaign.Report.cells
  in
  (* Same seed, same grid outcomes: the whole sweep is a deterministic
     function of (spec, seed), crash schedules included. *)
  let rerun =
    campaign_report (spec ~name:"e15-naive-tas" ~protocol:"naive-tas" ~trials ~seed)
  in
  let deterministic =
    List.for_all2
      (fun (a : Campaign.Report.cell_stats) (b : Campaign.Report.cell_stats) ->
        a.failures = b.failures && a.total_crashes = b.total_crashes
        && a.attr_crash_only = b.attr_crash_only)
      (report_of "naive-tas").Campaign.Report.cells rerun.Campaign.Report.cells
  in
  Report.make ~id:"E15" ~title:"Recoverable consensus under crash-restart faults"
    ~claim:
      "Crash-restart composes with CAS faults as an independent fault dimension: the \
       naive TAS baseline (restart re-runs the body) loses consensus on crash-only \
       schedules — every such violation attributed to crashes alone — while the \
       recoverable constructions (rec-cas, rec-tas, with recovery sections in Golab's \
       recoverable-linearizability style) stay clean on every crash-only cell, across \
       persistence modes; and the whole CAS-fault × crash-schedule grid is a \
       deterministic function of the seed."
    ~passed:
      (naive_violates && naive_crash_attributed
      && recoverable_clean "rec-tas" && recoverable_clean "rec-cas"
      && deterministic)
    ~tables:
      [
        ( "CAS-fault kind × crash rate × persistence (crashes = 1/proc, p = 0.5 on \
           f = 1 rows)",
          table );
      ]
    ~notes:
      [
        (if naive_violates then
           "naive-tas violates on crash-only schedules (crash attribution: every \
            violating trial charged crashes, no primitive fault)"
         else "naive-tas produced no crash-only violation — expected some");
        (if deterministic then "re-running the naive-tas campaign with the same seed \
                                reproduced every cell's outcome"
         else "NON-DETERMINISM: same seed, different grid outcomes");
      ]
    ()
