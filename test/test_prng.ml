(* Tests for Ffault_prng: determinism, ranges, stream independence, and
   distribution sanity of the sampling helpers. *)

module Splitmix = Ffault_prng.Splitmix
module Rng = Ffault_prng.Rng

let check = Alcotest.check
let qcheck = QCheck_alcotest.to_alcotest

let test_splitmix_deterministic () =
  let a = Splitmix.create 42L and b = Splitmix.create 42L in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Splitmix.next a) (Splitmix.next b)
  done

let test_splitmix_seed_sensitivity () =
  let a = Splitmix.create 1L and b = Splitmix.create 2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if not (Int64.equal (Splitmix.next a) (Splitmix.next b)) then differs := true
  done;
  check Alcotest.bool "different seeds diverge" true !differs

let test_splitmix_copy_independent () =
  let a = Splitmix.create 7L in
  ignore (Splitmix.next a);
  let b = Splitmix.copy a in
  let xa = Splitmix.next a in
  let xb = Splitmix.next b in
  check Alcotest.int64 "copy continues identically" xa xb;
  ignore (Splitmix.next a);
  (* advancing a does not advance b *)
  let xa2 = Splitmix.next a and xb2 = Splitmix.next b in
  check Alcotest.bool "streams advance independently" false
    (Int64.equal xa2 xb2 && Int64.equal xa2 0L)

let test_splitmix_state_roundtrip () =
  let a = Splitmix.create 11L in
  ignore (Splitmix.next a);
  let b = Splitmix.of_state (Splitmix.state a) in
  check Alcotest.int64 "resume from state" (Splitmix.next a) (Splitmix.next b)

let test_split_independence () =
  let a = Splitmix.create 3L in
  let b = Splitmix.split a in
  let xs = List.init 50 (fun _ -> Splitmix.next a) in
  let ys = List.init 50 (fun _ -> Splitmix.next b) in
  check Alcotest.bool "split streams differ" true (xs <> ys)

let test_hash_stateless () =
  check Alcotest.int64 "hash is a pure function" (Splitmix.hash 123L) (Splitmix.hash 123L);
  check Alcotest.bool "hash separates close inputs" true
    (not (Int64.equal (Splitmix.hash 123L) (Splitmix.hash 124L)))

let prop_next_int_in_range =
  QCheck.Test.make ~name:"Splitmix.next_int stays in [0, bound)" ~count:500
    QCheck.(pair int64 (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let g = Splitmix.create seed in
      let v = Splitmix.next_int g ~bound in
      v >= 0 && v < bound)

let prop_next_float_in_range =
  QCheck.Test.make ~name:"next_float in [0, 1)" ~count:500 QCheck.int64 (fun seed ->
      let g = Splitmix.create seed in
      let f = Splitmix.next_float g in
      f >= 0.0 && f < 1.0)

let test_next_int_rejects_bad_bound () =
  let g = Splitmix.create 0L in
  Alcotest.check_raises "bound 0" (Invalid_argument "Splitmix.next_int: bound must be positive")
    (fun () -> ignore (Splitmix.next_int g ~bound:0))

let test_rng_int_in () =
  let g = Rng.make ~seed:9L in
  for _ = 1 to 200 do
    let v = Rng.int_in g ~lo:5 ~hi:7 in
    check Alcotest.bool "in [5,7]" true (v >= 5 && v <= 7)
  done

let test_rng_bernoulli_extremes () =
  let g = Rng.make ~seed:1L in
  check Alcotest.bool "p=0 never" false (Rng.bernoulli g ~p:0.0);
  check Alcotest.bool "p=1 always" true (Rng.bernoulli g ~p:1.0)

let test_rng_bernoulli_rate () =
  let g = Rng.make ~seed:77L in
  let hits = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.bernoulli g ~p:0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  check Alcotest.bool "rate near 0.3" true (rate > 0.27 && rate < 0.33)

let test_pick_empty () =
  let g = Rng.make ~seed:0L in
  Alcotest.check_raises "empty array" (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick g [||]));
  Alcotest.check_raises "empty list" (Invalid_argument "Rng.pick_list: empty list") (fun () ->
      ignore (Rng.pick_list g []))

let prop_shuffle_is_permutation =
  QCheck.Test.make ~name:"shuffle preserves the multiset" ~count:200
    QCheck.(pair int64 (list small_int))
    (fun (seed, l) ->
      let g = Rng.make ~seed in
      let a = Array.of_list l in
      Rng.shuffle g a;
      List.sort compare (Array.to_list a) = List.sort compare l)

let prop_sample_without_replacement =
  QCheck.Test.make ~name:"sample_without_replacement: sorted distinct subset" ~count:200
    QCheck.(triple int64 (int_range 0 20) (int_range 0 30))
    (fun (seed, k, extra) ->
      let n = k + extra in
      let g = Rng.make ~seed in
      let s = Rng.sample_without_replacement g ~k ~n in
      List.length s = k
      && List.for_all (fun x -> x >= 0 && x < n) s
      && List.sort_uniq compare s = s)

let test_weighted_index () =
  let g = Rng.make ~seed:13L in
  for _ = 1 to 100 do
    check Alcotest.int "all weight on index 2" 2 (Rng.weighted_index g [| 0.0; 0.0; 5.0 |])
  done;
  Alcotest.check_raises "empty" (Invalid_argument "Rng.weighted_index: empty weights")
    (fun () -> ignore (Rng.weighted_index g [||]));
  Alcotest.check_raises "zero total"
    (Invalid_argument "Rng.weighted_index: zero total weight") (fun () ->
      ignore (Rng.weighted_index g [| 0.0; 0.0 |]))

let test_weighted_index_distribution () =
  let g = Rng.make ~seed:21L in
  let counts = [| 0; 0 |] in
  let n = 10_000 in
  for _ = 1 to n do
    let i = Rng.weighted_index g [| 1.0; 3.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  let rate1 = float_of_int counts.(1) /. float_of_int n in
  check Alcotest.bool "index 1 near 3/4" true (rate1 > 0.72 && rate1 < 0.78)

let test_seed_of_string () =
  check Alcotest.int64 "stable" (Rng.seed_of_string "e1") (Rng.seed_of_string "e1");
  check Alcotest.bool "labels separate" true
    (not (Int64.equal (Rng.seed_of_string "e1") (Rng.seed_of_string "e2")))

(* ---- keyed streams: the label hash from its parts ---- *)

(* The reference: FNV-1a over the formatted label, as every keyed
   stream was seeded before labels were hashed from their parts. *)
let ref_seed_of_string s =
  let h = ref 0xCBF29CE484222325L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 0x100000001B3L)
    s;
  !h

(* 0, 9, 10, 99, 100, ..., each 10^k - 1 and 10^k up to 10^18, max_int,
   and their negations with min_int. *)
let label_ints =
  let pows = List.init 19 (fun k -> int_of_float (10.0 ** float_of_int k)) in
  let pos = 0 :: max_int :: List.concat_map (fun p -> [ p - 1; p ]) pows in
  List.sort_uniq Int.compare (min_int :: pos @ List.map Int.neg pos)

(* The edge seeds, then 10k hashed ones. *)
let label_seeds =
  [ 0L; -1L; Int64.min_int; Int64.max_int ]
  @ List.init 10_000 (fun i -> Splitmix.hash (Int64.of_int i))

let same what expected actual =
  if not (Int64.equal expected actual) then
    Alcotest.failf "%s: %Ld, reference %Ld" what actual expected

(* Every label shape lib/ hashes: crash decisions, frame fates and
   latencies, the per-schedule windows and the sweep's schedule seeds. *)
let check_labels seed pairs =
  List.iter
    (fun what ->
      let s = "/" ^ what in
      same s
        (ref_seed_of_string (Printf.sprintf "%Ld%s" seed s))
        (Rng.label_seed (Rng.label seed s)))
    [ "params"; "partitions"; "crashes"; "coordcrash" ];
  let crash = Rng.label seed "/crash/"
  and frame = Rng.label seed "/frame/"
  and latency = Rng.label seed "/latency/" in
  List.iter
    (fun (a, b) ->
      same "crash" (ref_seed_of_string (Printf.sprintf "%Ld/crash/%d/%d" seed a b))
        (Rng.label_seed_ints crash a b);
      same "frame" (ref_seed_of_string (Printf.sprintf "%Ld/frame/%d/%d" seed a b))
        (Rng.label_seed_ints frame a b);
      same "latency" (ref_seed_of_string (Printf.sprintf "%Ld/latency/%d" seed a))
        (Rng.label_seed_int latency a);
      same "schedule" (ref_seed_of_string (Printf.sprintf "%Ld#%d" seed a))
        (Ffault_netsim.Search.schedule_seed ~root:seed a))
    pairs

let test_labels_match_reference () =
  let ints = Array.of_list label_ints in
  let n = Array.length ints in
  List.iteri
    (fun i seed ->
      if i < 4 then
        (* the edge seeds: every pair of ints *)
        check_labels seed
          (List.concat_map (fun a -> List.map (fun b -> (a, b)) label_ints) label_ints)
      else
        (* the hashed seeds: a few pairs each, walking the ints, and the
           small ints a schedule meets *)
        check_labels seed
          [ (ints.(i mod n), ints.(i * 7 mod n)); (i mod 4, i mod 97); (i mod 6, i) ])
    label_seeds;
  List.iter
    (fun s -> same (Printf.sprintf "%S" s) (ref_seed_of_string s) (Rng.seed_of_string s))
    [ ""; "e1"; "\000\255"; String.make 300 'x' ]

let prop_seed_of_string_matches_reference =
  QCheck.Test.make ~name:"seed_of_string matches the reference" ~count:500 QCheck.string
    (fun s -> Int64.equal (Rng.seed_of_string s) (ref_seed_of_string s))

let suites =
  [
    ( "prng",
      [
        Alcotest.test_case "splitmix deterministic" `Quick test_splitmix_deterministic;
        Alcotest.test_case "splitmix seed sensitivity" `Quick test_splitmix_seed_sensitivity;
        Alcotest.test_case "splitmix copy independent" `Quick test_splitmix_copy_independent;
        Alcotest.test_case "splitmix state roundtrip" `Quick test_splitmix_state_roundtrip;
        Alcotest.test_case "split independence" `Quick test_split_independence;
        Alcotest.test_case "hash stateless" `Quick test_hash_stateless;
        Alcotest.test_case "next_int rejects bad bound" `Quick test_next_int_rejects_bad_bound;
        Alcotest.test_case "rng int_in range" `Quick test_rng_int_in;
        Alcotest.test_case "bernoulli extremes" `Quick test_rng_bernoulli_extremes;
        Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
        Alcotest.test_case "pick empty raises" `Quick test_pick_empty;
        Alcotest.test_case "weighted_index" `Quick test_weighted_index;
        Alcotest.test_case "weighted_index distribution" `Quick
          test_weighted_index_distribution;
        Alcotest.test_case "seed_of_string" `Quick test_seed_of_string;
        Alcotest.test_case "labels hash as their formatted strings" `Quick
          test_labels_match_reference;
        qcheck prop_seed_of_string_matches_reference;
        qcheck prop_next_int_in_range;
        qcheck prop_next_float_in_range;
        qcheck prop_shuffle_is_permutation;
        qcheck prop_sample_without_replacement;
      ] );
  ]
