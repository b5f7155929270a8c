(* Tests for the statistics and table-rendering helpers. *)

module Summary = Ffault_stats.Summary
module Table = Ffault_stats.Table

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest
let feq = Alcotest.float 1e-9

(* The reference the accumulator must match bit for bit: the samples
   sorted, p/100 × (n - 1) interpolated between its neighbours, and the
   integer sum divided by the count. *)
let ref_percentile xs p =
  let a = Array.of_list (List.sort compare xs) in
  let rank = p /. 100.0 *. float_of_int (Array.length a - 1) in
  let lo = int_of_float (floor rank) and hi = int_of_float (ceil rank) in
  let v i = float_of_int a.(i) in
  if lo = hi then v lo
  else
    let w = rank -. float_of_int lo in
    (v lo *. (1.0 -. w)) +. (v hi *. w)

let ref_mean xs = float_of_int (List.fold_left ( + ) 0 xs) /. float_of_int (List.length xs)

let summary_of xs =
  let s = Summary.create () in
  List.iter (Summary.add s) xs;
  s

let ps = [ 0.0; 1.0; 25.0; 50.0; 75.0; 99.0; 99.9; 100.0 ]

(* Every statistic of [s], the floats as bits: equal fingerprints mean
   equal results. *)
let fingerprint s =
  ( Summary.count s,
    List.map Int64.bits_of_float
      (Summary.mean s :: Summary.max_value s :: List.map (Summary.percentile s) ps) )

let matches_reference xs =
  fingerprint (summary_of xs)
  = ( List.length xs,
      List.map Int64.bits_of_float
        (ref_mean xs
        :: float_of_int (List.fold_left max min_int xs)
        :: List.map (ref_percentile xs) ps) )

let test_summary_known_values () =
  let xs = [ 5; 2; 9; 4; 4; 7; 4; 5 ] in
  let s = summary_of xs in
  check Alcotest.int "count" 8 (Summary.count s);
  check feq "mean" 5.0 (Summary.mean s);
  check feq "max" 9.0 (Summary.max_value s);
  check feq "p0 is the minimum" 2.0 (Summary.percentile s 0.0);
  check feq "median" 4.5 (Summary.percentile s 50.0);
  check Alcotest.bool "matches the sorted reference" true (matches_reference xs)

let test_summary_empty () =
  let s = Summary.create () in
  check feq "mean of empty" 0.0 (Summary.mean s);
  Alcotest.check_raises "percentile of empty"
    (Invalid_argument "Summary.percentile: empty accumulator") (fun () ->
      ignore (Summary.percentile s 50.0));
  Alcotest.check_raises "max of empty" (Invalid_argument "Summary.max_value: empty accumulator")
    (fun () -> ignore (Summary.max_value s))

let test_summary_percentiles () =
  let s = Summary.create () in
  for i = 1 to 100 do
    Summary.add s i
  done;
  check feq "p0" 1.0 (Summary.percentile s 0.0);
  check feq "p100" 100.0 (Summary.percentile s 100.0);
  check feq "median" 50.5 (Summary.percentile s 50.0);
  Alcotest.check_raises "bad p" (Invalid_argument "Summary.percentile: p out of [0, 100]")
    (fun () -> ignore (Summary.percentile s 101.0))

let test_summary_single () =
  let s = summary_of [ 3 ] in
  check feq "mean" 3.0 (Summary.mean s);
  check feq "p50" 3.0 (Summary.percentile s 50.0);
  check feq "max" 3.0 (Summary.max_value s)

(* 65,536 samples was the size of the sample a percentile once read;
   the accumulator keeps no such cap, so past it every statistic is
   still exact. *)
let test_summary_reservoir_cap () =
  let xs = List.init 100_003 (fun i -> 3 + ((i * 7919) mod 29)) in
  let s = summary_of xs in
  check Alcotest.int "count sees everything" 100_003 (Summary.count s);
  check Alcotest.bool "matches the sorted reference" true (matches_reference xs)

let test_summary_below_cap_is_exact () =
  let xs = List.init 65_536 (fun i -> i + 1) in
  let s = summary_of xs in
  check Alcotest.int "count" 65_536 (Summary.count s);
  check feq "mean exact" 32768.5 (Summary.mean s);
  check feq "p50 exact" 32768.5 (Summary.percentile s 50.0);
  check feq "max exact" 65536.0 (Summary.max_value s);
  check Alcotest.bool "matches the sorted reference" true (matches_reference xs)

let samples = QCheck.(list_of_size (Gen.int_range 1 300) (int_range (-1000) 1000))

let prop_mean_within_bounds =
  QCheck.Test.make ~name:"mean within [min, max]" ~count:200 samples (fun xs ->
      let s = summary_of xs in
      Summary.mean s >= Summary.percentile s 0.0 && Summary.mean s <= Summary.max_value s)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentiles monotone" ~count:200 samples (fun xs ->
      let s = summary_of xs in
      let rec monotone = function
        | a :: (b :: _ as rest) -> Summary.percentile s a <= Summary.percentile s b && monotone rest
        | _ -> true
      in
      monotone ps)

let prop_matches_reference =
  QCheck.Test.make ~name:"matches the sorted reference" ~count:200 samples matches_reference

let prop_order_free =
  QCheck.Test.make ~name:"shuffled input gives identical results" ~count:200
    QCheck.(pair samples int)
    (fun (xs, seed) ->
      let rng = Random.State.make [| seed |] in
      let shuffled =
        List.map snd (List.sort compare (List.map (fun x -> (Random.State.bits rng, x)) xs))
      in
      fingerprint (summary_of xs) = fingerprint (summary_of shuffled))

let test_table_rendering () =
  let t = Table.create ~columns:[ "a"; "bbb" ] in
  Table.add_row t [ "1"; "2" ];
  Table.add_row t [ "333"; "4" ];
  let expected = "| a   | bbb |\n|-----|-----|\n| 1   | 2   |\n| 333 | 4   |\n" in
  check Alcotest.string "aligned" expected (Table.to_string t)

let test_table_utf8_width () =
  let t = Table.create ~columns:[ "v" ] in
  Table.add_row t [ "\xe2\x8a\xa5" ];
  (* ⊥ is 3 bytes, 1 display column *)
  Table.add_row t [ "xx" ];
  let expected = "| v  |\n|----|\n| \xe2\x8a\xa5  |\n| xx |\n" in
  check Alcotest.string "utf8 width" expected (Table.to_string t)

let test_table_validation () =
  Alcotest.check_raises "empty columns" (Invalid_argument "Table.create: empty column list")
    (fun () -> ignore (Table.create ~columns:[]));
  let t = Table.create ~columns:[ "a" ] in
  Alcotest.check_raises "row width" (Invalid_argument "Table.add_row: row width differs from header")
    (fun () -> Table.add_row t [ "1"; "2" ])

let test_cells () =
  check Alcotest.string "int" "42" (Table.cell_int 42);
  check Alcotest.string "bool" "yes" (Table.cell_bool true);
  check Alcotest.string "float" "3.14" (Table.cell_float 3.14159);
  check Alcotest.string "float decimals" "3.1" (Table.cell_float ~decimals:1 3.14159);
  check Alcotest.string "opt none" "-" (Table.cell_opt Table.cell_int None);
  check Alcotest.string "opt some" "7" (Table.cell_opt Table.cell_int (Some 7))

let suites =
  [
    ( "stats.summary",
      [
        Alcotest.test_case "known values" `Quick test_summary_known_values;
        Alcotest.test_case "empty" `Quick test_summary_empty;
        Alcotest.test_case "percentiles" `Quick test_summary_percentiles;
        Alcotest.test_case "single sample" `Quick test_summary_single;
        Alcotest.test_case "reservoir cap" `Quick test_summary_reservoir_cap;
        Alcotest.test_case "below cap exact" `Quick test_summary_below_cap_is_exact;
        qcheck prop_mean_within_bounds;
        qcheck prop_percentile_monotone;
        qcheck prop_matches_reference;
        qcheck prop_order_free;
      ] );
    ( "stats.table",
      [
        Alcotest.test_case "rendering" `Quick test_table_rendering;
        Alcotest.test_case "utf8 width" `Quick test_table_utf8_width;
        Alcotest.test_case "validation" `Quick test_table_validation;
        Alcotest.test_case "cells" `Quick test_cells;
      ] );
  ]
