(* Fake-clock unit tests for the supervision layer: heartbeats, the
   watchdog, retry backoff/classification and per-cell quarantine.
   Nothing here sleeps — the clock is a Clock.Virtual advanced by hand,
   which is exactly the seam Watchdog.poll was designed around. *)

module S = Ffault_supervise
module Heartbeat = S.Heartbeat
module Watchdog = S.Watchdog
module Retry = S.Retry
module Quarantine = S.Quarantine
module Cancel = Ffault_runtime.Cancel
module Clock = Ffault_runtime.Clock
module Mc = S.Mc
module Consensus_mc = Ffault_runtime.Consensus_mc
module Faulty_cas = Ffault_runtime.Faulty_cas

let check = Alcotest.check

let fake_clock start =
  let v = Clock.Virtual.create ~start_ns:start () in
  (Clock.Virtual.clock v, fun d -> Clock.Virtual.advance v ~ns:d)

let raises_invalid name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  | exception Invalid_argument _ -> ()

(* ---- heartbeat ---- *)

let test_heartbeat_ages () =
  let clock, advance = fake_clock 1_000 in
  let hb = Heartbeat.create ~clock ~slots:2 () in
  check Alcotest.int "slots" 2 (Heartbeat.slots hb);
  check Alcotest.(option int) "never beat" None (Heartbeat.last_ns hb ~slot:0);
  check Alcotest.(option int) "no age either" None (Heartbeat.age_ns hb ~slot:0);
  Heartbeat.beat hb ~slot:0;
  check Alcotest.(option int) "beat recorded" (Some 1_000) (Heartbeat.last_ns hb ~slot:0);
  advance 250;
  check Alcotest.(option int) "age from last beat" (Some 250) (Heartbeat.age_ns hb ~slot:0);
  check Alcotest.(option int) "other slot independent" None (Heartbeat.last_ns hb ~slot:1);
  Heartbeat.beat hb ~slot:0;
  check Alcotest.(option int) "re-beat resets age" (Some 0) (Heartbeat.age_ns hb ~slot:0)

let test_heartbeat_validation () =
  raises_invalid "slots < 1" (fun () -> Heartbeat.create ~slots:0 ())

(* ---- watchdog ---- *)

let test_watchdog_flags_and_cancels () =
  let clock, advance = fake_clock 0 in
  let hb = Heartbeat.create ~clock ~slots:2 () in
  let wd = Watchdog.create ~heartbeat:hb ~stall_ns:100 () in
  Heartbeat.beat hb ~slot:0;
  (* slot 1 never beats: judged from the watchdog's creation time *)
  check (Alcotest.list Alcotest.int) "nothing stuck yet" [] (Watchdog.poll wd);
  let token = Cancel.create ~now:(fun () -> Clock.now_ns clock) () in
  Watchdog.attach wd ~slot:1 token;
  advance 150;
  check (Alcotest.list Alcotest.int) "both slots stall" [ 0; 1 ] (Watchdog.poll wd);
  check Alcotest.bool "token cancelled" true (Cancel.cancelled token);
  (match Cancel.reason token with
  | Some r ->
      check Alcotest.bool "reason names the watchdog" true
        (String.length r >= 8 && String.sub r 0 8 = "watchdog")
  | None -> Alcotest.fail "cancelled token carries no reason");
  (* edge-triggered: still silent, but already flagged *)
  check (Alcotest.list Alcotest.int) "no re-flag while silent" [] (Watchdog.poll wd);
  check Alcotest.bool "slot 0 flagged" true (Watchdog.flagged wd ~slot:0)

let test_watchdog_beat_unflags () =
  let clock, advance = fake_clock 0 in
  let hb = Heartbeat.create ~clock ~slots:1 () in
  let wd = Watchdog.create ~heartbeat:hb ~stall_ns:100 () in
  advance 150;
  check (Alcotest.list Alcotest.int) "stuck" [ 0 ] (Watchdog.poll wd);
  Heartbeat.beat hb ~slot:0;
  check Alcotest.bool "beat clears the flag" false (Watchdog.flagged wd ~slot:0);
  check (Alcotest.list Alcotest.int) "alive again" [] (Watchdog.poll wd);
  advance 150;
  check (Alcotest.list Alcotest.int) "a second stall is a new flag" [ 0 ] (Watchdog.poll wd)

let test_watchdog_validation () =
  let hb = Heartbeat.create ~slots:1 () in
  raises_invalid "stall_ns < 1" (fun () -> Watchdog.create ~heartbeat:hb ~stall_ns:0 ())

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

let test_classify () =
  let p = Retry.policy ~max_retries:2 () in
  check Alcotest.bool "clean run is unclassified" true
    (Retry.classify p ~attempts_failed:0 ~succeeded:true = None);
  check Alcotest.bool "fail-then-succeed is transient" true
    (Retry.classify p ~attempts_failed:1 ~succeeded:true = Some Retry.Transient_infra);
  check Alcotest.bool "undecided while retries remain" true
    (Retry.classify p ~attempts_failed:2 ~succeeded:false = None);
  check Alcotest.bool "all attempts burned is deterministic" true
    (Retry.classify p ~attempts_failed:3 ~succeeded:false
    = Some Retry.Deterministic_protocol)

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

(* ---- multicore watchdog ---- *)

let test_mc_stall_bound () =
  check Alcotest.(option (float 1e-9)) "override wins" (Some 0.2)
    (Mc.stall_bound_s ~deadline_s:(Some 10.0) ~override_s:(Some 0.2));
  check Alcotest.(option (float 1e-9)) "4 x deadline" (Some 4.0)
    (Mc.stall_bound_s ~deadline_s:(Some 1.0) ~override_s:None);
  check Alcotest.(option (float 1e-9)) "floored at 0.5s" (Some 0.5)
    (Mc.stall_bound_s ~deadline_s:(Some 0.01) ~override_s:None);
  check Alcotest.(option (float 1e-9)) "unsupervised" None
    (Mc.stall_bound_s ~deadline_s:None ~override_s:None)

let test_mc_unwatched_plain () =
  let cfg =
    Consensus_mc.config ~n_domains:2 ~plan_for:(fun _ -> Faulty_cas.plan_never)
      Consensus_mc.Single_cas
  in
  let r = Mc.execute cfg in
  check Alcotest.bool "unwatched" false r.Mc.watched;
  check Alcotest.int "no stalls" 0 r.Mc.stalls;
  check Alcotest.bool "agreed" true r.Mc.mc.Consensus_mc.agreed;
  check Alcotest.int "no timeouts" 0 r.Mc.mc.Consensus_mc.timeouts

(* Every CAS hangs (nonresponsive style, p = 1): the domains beat at
   start, go silent inside the CAS, and the watchdog — bound well under
   the generous deadline — must flag them and cancel the trial. That
   the run ends at all (in ~the stall bound, not the 30 s deadline) is
   the point of satellite #1. *)
let test_mc_watchdog_catches_hang () =
  let cfg =
    Consensus_mc.config ~n_domains:2
      ~plan_for:(fun _ -> Faulty_cas.plan_always)
      ~style:Faulty_cas.Hang ~deadline_s:30.0 Consensus_mc.Single_cas
  in
  let started = Unix.gettimeofday () in
  let r = Mc.execute ~watchdog_stall_s:0.3 cfg in
  let wall = Unix.gettimeofday () -. started in
  check Alcotest.bool "watched" true r.Mc.watched;
  check Alcotest.bool "stalled domains flagged" true (r.Mc.stalls >= 1);
  check Alcotest.int "every domain timed out" 2 r.Mc.mc.Consensus_mc.timeouts;
  check Alcotest.bool "watchdog beat the deadline" true (wall < 10.0)

let test_mc_validation () =
  let cfg = Consensus_mc.config ~n_domains:1 Consensus_mc.Single_cas in
  raises_invalid "zero stall" (fun () -> Mc.execute ~watchdog_stall_s:0.0 cfg);
  raises_invalid "nan stall" (fun () -> Mc.execute ~watchdog_stall_s:Float.nan cfg)

let suites =
  [
    ( "supervise.heartbeat",
      [
        Alcotest.test_case "beats and ages" `Quick test_heartbeat_ages;
        Alcotest.test_case "validation" `Quick test_heartbeat_validation;
      ] );
    ( "supervise.watchdog",
      [
        Alcotest.test_case "flags and cancels" `Quick test_watchdog_flags_and_cancels;
        Alcotest.test_case "beat unflags" `Quick test_watchdog_beat_unflags;
        Alcotest.test_case "validation" `Quick test_watchdog_validation;
      ] );
    ( "supervise.retry",
      [
        Alcotest.test_case "backoff deterministic + bounded" `Quick
          test_backoff_deterministic_and_bounded;
        Alcotest.test_case "classification" `Quick test_classify;
        Alcotest.test_case "validation" `Quick test_retry_validation;
      ] );
    ( "supervise.quarantine",
      [
        Alcotest.test_case "threshold" `Quick test_quarantine_threshold;
        Alcotest.test_case "validation" `Quick test_quarantine_validation;
      ] );
    ( "supervise.mc",
      [
        Alcotest.test_case "stall bound" `Quick test_mc_stall_bound;
        Alcotest.test_case "unwatched is plain execute" `Quick test_mc_unwatched_plain;
        Alcotest.test_case "watchdog catches a hang" `Quick test_mc_watchdog_catches_hang;
        Alcotest.test_case "validation" `Quick test_mc_validation;
      ] );
  ]
