(* Unit tests for what the supervision layer keeps: the retry policy's
   seed-perturbed backoff and per-cell quarantine. Neither reads a
   clock, so nothing here sleeps. *)

module S = Ffault_supervise
module Retry = S.Retry
module Quarantine = S.Quarantine

let check = Alcotest.check

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* ---- retry ---- *)

let test_backoff_deterministic_and_bounded () =
  let p = Retry.policy ~max_retries:3 ~base_backoff_ns:1_000_000 ~max_backoff_ns:8_000_000 () in
  for attempt = 1 to 3 do
    let d = Retry.backoff_ns p ~seed:42L ~attempt in
    check Alcotest.int
      (Fmt.str "attempt %d reproducible" attempt)
      d
      (Retry.backoff_ns p ~seed:42L ~attempt);
    (* 0.5x .. 1.5x of the nominal exponential, capped *)
    let nominal = min (1_000_000 lsl (attempt - 1)) 8_000_000 in
    check Alcotest.bool
      (Fmt.str "attempt %d in [0.5, 1.5] x nominal (got %d)" attempt d)
      true
      (d >= nominal / 2 && d <= nominal * 3 / 2)
  done;
  (* different seeds decorrelate (not a hard guarantee per pair, but
     these two differ under the splitmix hash) *)
  check Alcotest.bool "seeds perturb" true
    (Retry.backoff_ns p ~seed:1L ~attempt:1 <> Retry.backoff_ns p ~seed:2L ~attempt:1);
  (* a huge attempt number must not overflow past the cap *)
  check Alcotest.bool "cap holds at extreme attempts" true
    (Retry.backoff_ns p ~seed:7L ~attempt:62 <= 12_000_000)

let test_retry_validation () =
  raises_invalid "negative retries" (fun () -> Retry.policy ~max_retries:(-1) ());
  raises_invalid "zero backoff" (fun () -> Retry.policy ~base_backoff_ns:0 ())

(* ---- quarantine ---- *)

let test_quarantine_threshold () =
  let q = Quarantine.create ~threshold:2 ~cells:3 () in
  check Alcotest.bool "first strike active" true (Quarantine.strike q ~cell:1 = `Active);
  check Alcotest.bool "not degraded yet" false (Quarantine.degraded q ~cell:1);
  check Alcotest.bool "second strike degrades" true (Quarantine.strike q ~cell:1 = `Degraded);
  check Alcotest.bool "degraded sticks" true (Quarantine.degraded q ~cell:1);
  check Alcotest.int "strikes counted" 2 (Quarantine.strikes q ~cell:1);
  check Alcotest.bool "other cells unaffected" false (Quarantine.degraded q ~cell:0);
  ignore (Quarantine.strike q ~cell:2);
  ignore (Quarantine.strike q ~cell:2);
  check (Alcotest.list Alcotest.int) "degraded cells ascending" [ 1; 2 ]
    (Quarantine.degraded_cells q)

let test_quarantine_validation () =
  raises_invalid "threshold < 1" (fun () -> Quarantine.create ~threshold:0 ~cells:1 ());
  raises_invalid "cells < 0" (fun () -> Quarantine.create ~cells:(-1) ())

let suites =
  [
    ( "supervise.retry",
      [
        Alcotest.test_case "backoff deterministic + bounded" `Quick
          test_backoff_deterministic_and_bounded;
        Alcotest.test_case "validation" `Quick test_retry_validation;
      ] );
    ( "supervise.quarantine",
      [
        Alcotest.test_case "threshold" `Quick test_quarantine_threshold;
        Alcotest.test_case "validation" `Quick test_quarantine_validation;
      ] );
  ]
