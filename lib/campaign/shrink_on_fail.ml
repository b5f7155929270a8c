module Splitmix = Ffault_prng.Splitmix
module Check = Ffault_verify.Consensus_check
module Engine = Ffault_sim.Engine
module Shrink = Ffault_verify.Shrink
module Dfs = Ffault_verify.Dfs
module Injector = Ffault_fault.Injector
module Crash_plan = Ffault_recover.Crash_plan
module Protocol = Ffault_consensus.Protocol
module Clock = Ffault_telemetry.Clock

(* One trial = one engine run driven by a recorded random decision
   vector. Recording follows the Dfs convention exactly — an index into
   the enabled-process / outcome-options list at every branchable point
   (more than one option), nothing at forced points — so a failing
   trial's vector replays verbatim under [Dfs.replay] and shrinks under
   [Shrink.witness] with no translation layer. Crash choices are just
   more menu indexes, so the same replay/shrink machinery covers them. *)

let index_of_crash options eff =
  let rec go i any = function
    | [] -> any
    | Engine.Crash_point e :: _ when Crash_plan.equal_crash_effect e eff -> Some i
    | Engine.Crash_point _ :: rest ->
        (* remember the first crash option as fallback: the plan's
           Linearize degrades to whatever crash the menu does offer *)
        go (i + 1) (if any = None then Some i else any) rest
    | _ :: rest -> go (i + 1) any rest
  in
  go 0 None options

let count_plain options =
  List.fold_left
    (fun acc -> function Engine.Crash_point _ -> acc | _ -> acc + 1)
    0 options

let run_recorded ?interrupt ?crash_plan setup ~rate ~seed =
  let g = Splitmix.create seed in
  let decisions = ref [] in
  let record c =
    decisions := c :: !decisions;
    c
  in
  (* Per-process operation counters: the crash plan keys its schedule on
     (proc, k) with k the process's 0-based op index, so every outcome
     choice — branchable or forced — advances the counter. *)
  let op_counts = Array.make setup.Check.params.Protocol.n_procs 0 in
  let next_k proc =
    let k = op_counts.(proc) in
    op_counts.(proc) <- k + 1;
    k
  in
  let driver =
    {
      Engine.choose_proc =
        (fun ~enabled ~step:_ ->
          match enabled with
          | [ p ] -> p
          | enabled ->
              List.nth enabled (record (Splitmix.next_int g ~bound:(List.length enabled))));
      choose_outcome =
        (fun ctx ~options ->
          let k = next_k ctx.Injector.proc in
          match options with
          | [ only ] -> only
          | options -> (
              let planned =
                match crash_plan with
                | None -> None
                | Some plan ->
                    Option.bind (Crash_plan.decide plan ~proc:ctx.Injector.proc ~k)
                      (index_of_crash options)
              in
              match planned with
              | Some c -> List.nth options (record c)
              | None ->
                  (* Head is the correct outcome; bias the fault branch by
                     the cell's rate, uniform among the primitive fault
                     options. Crash options are never taken by rate — only
                     the plan proposes crashes — and with no crash plan
                     the menu has no crash options, so this path draws the
                     same stream as before crashes existed. *)
                  let n_plain = count_plain options in
                  let c =
                    if n_plain > 1 && Splitmix.next_float g < rate then
                      1 + Splitmix.next_int g ~bound:(n_plain - 1)
                    else 0
                  in
                  List.nth options (record c)));
      after_step = (fun _ -> []);
    }
  in
  let report = Check.run_with_driver ?interrupt ~trace:false setup driver in
  (report, Array.of_list (List.rev !decisions))

let minimize setup decisions =
  match Shrink.witness_report setup decisions with
  | shrunk, report -> Some (shrunk, report)
  | exception _ ->
      (* A non-replaying vector would mean the recording drifted from
         the Dfs convention; never kill a campaign over a witness. *)
      None
[@@ffault.lint.allow
  "catch-all",
    "witness minimization is best-effort: a vector that fails to replay under any \
     exception means recording drifted from the Dfs convention, and the campaign \
     must journal the raw vector rather than die; nothing here holds a budget or \
     cancellation token"]

type result = {
  report : Check.report;
  decisions : int array;
  witness : int array option;
  wall_ns : int;
}

let run_trial ?(shrink = true) ?interrupt ?crash_plan setup ~rate ~seed =
  let started = Clock.now_ns () in
  let report, decisions = run_recorded ?interrupt ?crash_plan setup ~rate ~seed in
  (* A cancelled run must never shrink or carry a witness: its decision
     vector was truncated by wall-clock, so it neither replays
     deterministically nor witnesses anything. (Such runs also have no
     violations, so both guards below already pass them through.) *)
  let witness =
    if Check.ok report || not shrink then None
    else
      match minimize setup decisions with
      | Some (shrunk, _) -> Some shrunk
      | None -> Some decisions
  in
  let wall_ns = Clock.now_ns () - started in
  { report; decisions; witness; wall_ns }

let replay setup decisions = Dfs.replay setup decisions
