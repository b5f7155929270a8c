module Engine = Ffault_sim.Engine

type witness = { decisions : int array; report : Consensus_check.report }

type stats = {
  executions : int;
  max_choice_points : int;
  witnesses : witness list;
  truncated : bool;
}

let pp_stats ppf s =
  Fmt.pf ppf "%d executions, %d max choice points, %d witnesses%s" s.executions
    s.max_choice_points (List.length s.witnesses)
    (if s.truncated then " (truncated)" else "")

(* Replay one decision vector. Points with a single option are not
   branchable and consume no decision slot; disabled dimensions always
   take the default (or the forced policy, for fault points). Returns the
   report, the branch factors of the branchable points visited, and
   whether any branchable point fell past [max_branch_depth]. *)
let run_once ~trace setup ~explore_schedules ~explore_faults ~forced_outcome
    ~max_branch_depth decisions =
  let counts_rev = ref [] in
  let idx = ref 0 in
  let deep = ref false in
  let choose n =
    if n <= 1 then 0
    else if !idx >= max_branch_depth then begin
      deep := true;
      0
    end
    else begin
      let d = if !idx < Array.length decisions then decisions.(!idx) else 0 in
      counts_rev := n :: !counts_rev;
      incr idx;
      if d < n then d else 0
    end
  in
  let driver =
    {
      Engine.choose_proc =
        (fun ~enabled ~step:_ ->
          let c = if explore_schedules then choose (List.length enabled) else 0 in
          List.nth enabled c);
      choose_outcome =
        (fun ctx ~options ->
          match forced_outcome with
          | Some policy -> policy ctx ~options
          | None ->
              let c = if explore_faults then choose (List.length options) else 0 in
              List.nth options c);
      after_step = (fun _ -> []);
    }
  in
  let report = Consensus_check.run_with_driver ~trace setup driver in
  (report, Array.of_list (List.rev !counts_rev), !deep)

let explore ?(max_executions = 200_000) ?(max_branch_depth = 64) ?(max_witnesses = 1)
    ?(explore_schedules = true) ?(explore_faults = true) ?forced_outcome
    ?(initial_prefix = [||]) ?on_report setup =
  let explore_faults = explore_faults && forced_outcome = None in
  let executions = ref 0 in
  let max_cp = ref 0 in
  let witnesses = ref [] in
  let n_witnesses = ref 0 in
  let truncated = ref false in
  let stack = ref [ initial_prefix ] in
  let continue_search () =
    !stack <> [] && !executions < max_executions && !n_witnesses < max_witnesses
  in
  while continue_search () do
    match !stack with
    | [] -> ()
    | prefix :: rest ->
        stack := rest;
        incr executions;
        let report, counts, deep =
          run_once ~trace:true setup ~explore_schedules ~explore_faults ~forced_outcome
            ~max_branch_depth prefix
        in
        if deep then truncated := true;
        if Array.length counts > !max_cp then max_cp := Array.length counts;
        (match on_report with Some f -> f prefix report | None -> ());
        if not (Consensus_check.ok report) then begin
          incr n_witnesses;
          witnesses := { decisions = prefix; report } :: !witnesses
        end;
        (* Spawn siblings of every default choice beyond the prefix; push
           in reverse so exploration stays lexicographic. *)
        let base = Array.length prefix in
        for i = Array.length counts - 1 downto base do
          for alt = counts.(i) - 1 downto 1 do
            let child = Array.make (i + 1) 0 in
            Array.blit prefix 0 child 0 base;
            child.(i) <- alt;
            stack := child :: !stack
          done
        done
  done;
  if !stack <> [] && !executions >= max_executions then truncated := true;
  {
    executions = !executions;
    max_choice_points = !max_cp;
    witnesses = List.rev !witnesses;
    truncated = !truncated;
  }

let replay ?(trace = true) setup decisions =
  let report, _, _ =
    run_once ~trace setup ~explore_schedules:true ~explore_faults:true ~forced_outcome:None
      ~max_branch_depth:max_int decisions
  in
  report
