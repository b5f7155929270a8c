(* The compare gate's decision rule on synthetic inputs, the quartile
   method (Python's statistics.quantiles), and BENCHMARK.json
   against the harness's own metric catalog. *)

open Perfbench
module Json = Ffault_campaign.Json

let verdict = Alcotest.testable (Fmt.of_to_string Verdict.to_string) ( = )
let around x n = List.init n (fun i -> x *. (1.0 +. (0.001 *. float_of_int (i mod 3))))

let decide ?(better = Catalog.Higher) ?(bound = 0.1) ?(alternating = true) parent change =
  Verdict.decide ~better ~bound ~alternating ~parent ~change

let test_same () =
  Alcotest.check verdict "identical runs" Verdict.Unchanged
    (decide (around 100.0 10) (around 100.0 10))

let test_improved () =
  Alcotest.check verdict "10 pairs, all won, beyond the spread" Verdict.Improved
    (decide (around 100.0 10) (around 105.0 10));
  Alcotest.check verdict "lower is better" Verdict.Improved
    (decide ~better:Catalog.Lower (around 100.0 10) (around 95.0 10))

let test_gain_needs_pairs () =
  Alcotest.check verdict "9 pairs are too few" Verdict.Unchanged
    (decide (around 100.0 9) (around 105.0 9));
  Alcotest.check verdict "runs did not alternate" Verdict.Unchanged
    (decide ~alternating:false (around 100.0 10) (around 105.0 10))

let test_gain_needs_wins () =
  (* 8 wins in 10 pairs *)
  let parent = around 100.0 10 in
  let change = List.mapi (fun i p -> if i < 2 then p -. 1.0 else p +. 5.0) parent in
  Alcotest.check verdict "8 of 10 wins" Verdict.Unchanged (decide parent change);
  let change = List.mapi (fun i p -> if i = 0 then p -. 1.0 else p +. 5.0) parent in
  Alcotest.check verdict "9 of 10 wins" Verdict.Improved (decide parent change)

let test_gain_needs_spread () =
  (* parent quartiles 90 and 110: a 5-unit gain sits inside the spread *)
  let parent = [ 80.; 90.; 90.; 90.; 100.; 100.; 110.; 110.; 110.; 120. ] in
  let change = List.map (fun p -> p +. 5.0) parent in
  Alcotest.check verdict "gain inside the parent's spread" Verdict.Unresolved
    (decide ~bound:0.1 parent change);
  Alcotest.check verdict "same, with a bound wider than the spread" Verdict.Unchanged
    (decide ~bound:0.5 parent change)

let test_regressed () =
  Alcotest.check verdict "11% slower against a 10% bound" Verdict.Regressed
    (decide (around 100.0 10) (around 89.0 10));
  Alcotest.check verdict "9% slower stays within the bound" Verdict.Unchanged
    (decide (around 100.0 10) (around 91.0 10));
  Alcotest.check verdict "lower is better: 12% higher" Verdict.Regressed
    (decide ~better:Catalog.Lower (around 100.0 10) (around 112.0 10));
  Alcotest.check verdict "one run a side suffices to regress" Verdict.Regressed
    (decide [ 100.0 ] [ 80.0 ])

let test_wide_spread () =
  let parent = [ 60.; 80.; 100.; 120.; 140. ] in
  Alcotest.check verdict "spread wider than the bound" Verdict.Unresolved
    (decide parent [ 62.; 81.; 100.; 119.; 139. ]);
  Alcotest.check verdict "unless every change run beats every parent run" Verdict.Unchanged
    (decide parent [ 141.; 142.; 143.; 144.; 145. ]);
  Alcotest.check verdict "no runs" Verdict.Unresolved (decide [] [ 1.0 ])

let test_alternating () =
  Alcotest.(check bool) "P C P C" true
    (Verdict.alternating ~parent_starts:[ 1; 3 ] ~change_starts:[ 2; 4 ]);
  Alcotest.(check bool) "C P C P" true
    (Verdict.alternating ~parent_starts:[ 2; 4 ] ~change_starts:[ 1; 3 ]);
  Alcotest.(check bool) "P P C C" false
    (Verdict.alternating ~parent_starts:[ 1; 2 ] ~change_starts:[ 3; 4 ])

(* Values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let close = Alcotest.(pair (float 1e-12) (float 1e-12)) in
  Alcotest.check close "1..10" (2.75, 8.25)
    (Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.check close "two values" (0.75, 2.25) (Stats.quartiles [ 2.0; 1.0 ]);
  Alcotest.check close "five values" (1.5, 4.5) (Stats.quartiles [ 5.; 4.; 3.; 2.; 1. ]);
  Alcotest.(check (float 0.0)) "median of four" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check (float 0.0)) "p99 nearest rank" 99.0
    (Stats.percentile (List.init 100 (fun i -> float_of_int (i + 1))) 99.0)

let benchmark_json () =
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  match Json.of_string text with Ok j -> j | Error m -> Alcotest.fail m

let list_of name j = Option.value ~default:[] (Option.bind (Json.member name j) Json.get_list)
let str name j = Option.value ~default:"" (Option.bind (Json.member name j) Json.get_str)

let test_benchmark_json () =
  let j = benchmark_json () in
  Alcotest.(check (list string)) "workloads"
    (List.map Workload.name Workload.all)
    (List.map (str "name") (list_of "workloads" j));
  let entries name =
    List.map (fun m -> (str "name" m, str "unit" m, str "better" m)) (list_of name j)
  in
  let catalog ms =
    List.map
      (fun (m : Catalog.metric) ->
        (m.Catalog.name, m.Catalog.unit, Catalog.better_to_string m.Catalog.better))
      ms
  in
  let triple = Alcotest.(list (triple string string string)) in
  Alcotest.check triple "end_to_end" (catalog Catalog.end_to_end) (entries "end_to_end");
  Alcotest.check triple "per_layer" (catalog Catalog.per_layer) (entries "per_layer");
  List.iter
    (fun m ->
      match Option.bind (Json.member "bound" m) Json.get_float with
      | Some b ->
          Alcotest.(check bool) (str "name" m ^ " bound in (0, 0.25]") true (b > 0.0 && b <= 0.25)
      | None -> Alcotest.fail (str "name" m ^ " has no bound"))
    (list_of "end_to_end" j)

let () =
  Alcotest.run "perfbench"
    [
      ( "verdict",
        [
          Alcotest.test_case "identical runs are unchanged" `Quick test_same;
          Alcotest.test_case "clear gain is improved" `Quick test_improved;
          Alcotest.test_case "gain needs 10 alternating pairs" `Quick test_gain_needs_pairs;
          Alcotest.test_case "gain needs 9 wins in 10" `Quick test_gain_needs_wins;
          Alcotest.test_case "gain must exceed the parent's spread" `Quick test_gain_needs_spread;
          Alcotest.test_case "regression beyond the bound" `Quick test_regressed;
          Alcotest.test_case "spread wider than the bound" `Quick test_wide_spread;
          Alcotest.test_case "alternation" `Quick test_alternating;
        ] );
      ("stats", [ Alcotest.test_case "python-compatible quartiles" `Quick test_quartiles ]);
      ("benchmark.json", [ Alcotest.test_case "matches the catalog" `Quick test_benchmark_json ]);
    ]
