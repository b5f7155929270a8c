type entry = { id : string; title : string; run : quick:bool -> seed:int64 -> Report.t }

let entry id title run =
  { id; title; run = (fun ~quick ~seed -> run ?quick:(Some quick) ?seed:(Some seed) ()) }

let all =
  [
    entry "E1" "Two-process consensus from one faulty CAS (Fig. 1, Thm 4)"
      E1_two_process.run;
    entry "E2" "f-tolerant consensus from f+1 CAS objects (Fig. 2, Thm 5)" E2_f_tolerant.run;
    entry "E3" "(f, t, f+1)-tolerant consensus from f objects (Fig. 3, Thm 6)"
      E3_bounded_faults.run;
    entry "E4" "Lower bound: f objects, unbounded faults, n > 2 (Thm 18)"
      E4_unbounded_lower.run;
    entry "E5" "Covering adversary: f objects, n = f+2 (Thm 19)" E5_covering.run;
    entry "E6" "The faulty-CAS consensus hierarchy (\xc2\xa75.2)" E6_hierarchy.run;
    entry "E7" "Functional vs data faults (model separation)" E7_model_separation.run;
    entry "E8" "The CAS fault taxonomy (\xc2\xa73.4)" E8_taxonomy.run;
    entry "E9" "Universality over faulty CAS" E9_universal.run;
    entry "E10" "Severity and graceful degradation (\xc2\xa76/\xc2\xa77)" E10_degradation.run;
    entry "E11" "Mixed functional faults (Definition 3 remark)" E11_mixed_faults.run;
    entry "E12" "Failure-probability and cost curves" E12_curves.run;
    entry "E13" "Structured faults of a second primitive: TAS (\xc2\xa77)" E13_tas_faults.run;
    entry "E14" "Relaxed data structures as functional faults (\xc2\xa76)" E14_relaxation.run;
    entry "E15" "Recoverable consensus under crash-restart faults" E15_recoverable.run;
  ]

let find id =
  let id = String.uppercase_ascii id in
  List.find_opt (fun e -> String.equal e.id id) all
