open Common
module Table = Ffault_stats.Table
module Summary = Ffault_stats.Summary
module Campaign = Ffault_campaign
module Bounded_faults = Consensus.Bounded_faults

(* E12 rides the campaign engine: each curve is one or more in-memory
   campaigns (Pool.run_trials over a declarative grid), and every data
   point is a cell of the aggregated report — the same pipeline
   `ffault campaign run` uses, so the figure-style series and the CLI
   artifacts can never drift apart. *)

let campaign_report spec =
  Campaign.Report.of_records spec (fun step ->
      ignore (Campaign.Pool.run_trials ~on_record:step spec))

let cell_rate (c : Campaign.Report.cell_stats) = c.cell.Campaign.Grid.rate

let run ?(quick = false) ?(seed = 0xE12L) () =
  let trials = if quick then 400 else 2000 in
  (* Curve 1: single-CAS consensus at n = 3 vs fault rate — one campaign
     whose grid is the rate axis. *)
  let report1 =
    campaign_report
      (Campaign.Spec.v ~name:"e12-curve1" ~protocol:"herlihy" ~f:[ 1 ] ~n:[ 3 ]
         ~rates:[ 0.05; 0.1; 0.2; 0.4; 0.6; 0.9 ]
         ~trials ~seed ())
  in
  let curve1 = Table.create ~columns:[ "fault rate p"; "trials"; "failure rate" ] in
  let rates =
    List.map
      (fun (c : Campaign.Report.cell_stats) -> (cell_rate c, c.failure_rate))
      report1.Campaign.Report.cells
  in
  List.iter
    (fun (p, r) ->
      Table.add_row curve1
        [ Table.cell_float ~decimals:2 p; Table.cell_int trials; Table.cell_float ~decimals:3 r ])
    rates;
  let monotone_ish =
    (* allow small sampling wiggles: compare first and last *)
    match rates with
    | (_, first) :: _ ->
        let _, last = List.nth rates (List.length rates - 1) in
        last > first
    | [] -> false
  in
  (* Curve 2: the sweep over m all-faulty objects at p = 0.5, n = 3.
     The protocol changes per point, so this is four one-cell
     campaigns. *)
  let curve2 = Table.create ~columns:[ "objects (all faulty)"; "trials"; "failure rate" ] in
  let m_rates =
    List.map
      (fun m ->
        let report =
          campaign_report
            (Campaign.Spec.v
               ~name:(Fmt.str "e12-curve2-m%d" m)
               ~protocol:(Fmt.str "sweep%d" m) ~f:[ m ] ~n:[ 3 ] ~rates:[ 0.5 ] ~trials
               ~seed:(Int64.add seed (Int64.of_int (1000 + m)))
               ())
        in
        match report.Campaign.Report.cells with
        | [ c ] -> (m, c.Campaign.Report.failure_rate)
        | _ -> assert false)
      [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun (m, r) ->
      Table.add_row curve2
        [ Table.cell_int m; Table.cell_int trials; Table.cell_float ~decimals:3 r ])
    m_rates;
  let decaying =
    match m_rates with
    | (_, r1) :: _ ->
        let _, r4 = List.nth m_rates (List.length m_rates - 1) in
        r4 < r1
    | [] -> false
  in
  (* Curve 3: Fig. 3 cost scaling. n tracks f (n = f + 1), so each
     (f, t) point is its own one-cell campaign; the cost statistic is
     the report's per-trial worst ops/process summary. *)
  let curve3 =
    Table.create
      ~columns:
        [ "f"; "t"; "n"; "maxStage"; "mean worst ops"; "p99 worst ops"; "max worst ops" ]
  in
  let cost_trials = if quick then 100 else 400 in
  let cost ~f ~t =
    let n = f + 1 in
    let report =
      campaign_report
        (Campaign.Spec.v
           ~name:(Fmt.str "e12-curve3-f%d-t%d" f t)
           ~protocol:"fig3" ~f:[ f ] ~t:[ Some t ] ~n:[ n ] ~rates:[ 0.4 ]
           ~trials:cost_trials
           ~seed:(Int64.add seed (Int64.of_int ((f * 17) + t)))
           ())
    in
    let ops =
      match report.Campaign.Report.cells with
      | [ c ] -> c.Campaign.Report.steps
      | _ -> assert false
    in
    Table.add_row curve3
      [
        Table.cell_int f; Table.cell_int t; Table.cell_int n;
        Table.cell_int (Bounded_faults.max_stage ~f ~t);
        Table.cell_float ~decimals:1 (Summary.mean ops);
        Table.cell_float ~decimals:0 (Summary.percentile ops 99.0);
        Table.cell_float ~decimals:0 (Summary.max_value ops);
      ];
    Summary.mean ops
  in
  let c_f1 = cost ~f:1 ~t:1 in
  let _ = cost ~f:2 ~t:1 in
  let c_f3 = cost ~f:3 ~t:1 in
  let c_t1 = cost ~f:2 ~t:2 in
  let c_t3 = cost ~f:2 ~t:3 in
  let _ = if quick then 0.0 else cost ~f:4 ~t:1 in
  let cost_shapes = c_f3 > c_f1 && c_t3 > c_t1 in
  Report.make ~id:"E12" ~title:"Failure-probability and cost curves"
    ~claim:
      "Average-case shapes bracket the worst-case theorems: violation probability of the \
       unprotected protocol rises with the fault rate; adding (even all-faulty) objects \
       drives random failure rates down although no finite count is safe (Thm 18); Fig. 3's \
       cost grows superlinearly in f and linearly in t, tracking its t(4f + f\xc2\xb2) stage \
       budget."
    ~passed:(monotone_ish && decaying && cost_shapes)
    ~tables:
      [
        ("Single-CAS consensus, n = 3, one faulty object: failure rate vs p", curve1);
        ("Sweep protocol, n = 3, all m objects faulty, p = 0.5", curve2);
        ("Fig. 3 operations per process (p = 0.4 overriding)", curve3);
      ]
    ()
