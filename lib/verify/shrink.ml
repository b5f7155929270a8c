(* Every shrink candidate costs one full replay; the counter makes
   shrink explosions (a hopeless cell minimizing forever) visible in
   campaign telemetry. A candidate's verdict reads no trace, so none is
   built: only the final replay in [witness_report] is traced. *)
let m_replays = Ffault_telemetry.Metrics.counter "shrink.iterations"

let violates setup decisions =
  Ffault_telemetry.Metrics.incr m_replays;
  not (Consensus_check.ok (Dfs.replay ~trace:false setup decisions))

let truncate_zeros decisions =
  (* trailing zeros are semantically absent — drop them outright *)
  let n = ref (Array.length decisions) in
  while !n > 0 && decisions.(!n - 1) = 0 do
    decr n
  done;
  Array.sub decisions 0 !n

let witness setup decisions =
  if not (violates setup decisions) then
    invalid_arg "Shrink.witness: input vector does not violate";
  let current = ref (truncate_zeros decisions) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* (1) drop trailing entries *)
    let continue_chop = ref true in
    while !continue_chop && Array.length !current > 0 do
      let candidate = Array.sub !current 0 (Array.length !current - 1) in
      if violates setup candidate then begin
        current := truncate_zeros candidate;
        changed := true
      end
      else continue_chop := false
    done;
    (* (2) zero, then (3) decrement, each entry; [current] may shrink
       mid-loop via truncation, so re-check the index each time *)
    let n = Array.length !current in
    for i = 0 to n - 1 do
      if i < Array.length !current && !current.(i) > 0 then begin
        let zeroed = Array.copy !current in
        zeroed.(i) <- 0;
        if violates setup zeroed then begin
          current := truncate_zeros zeroed;
          changed := true
        end
        else begin
          let dec = Array.copy !current in
          dec.(i) <- dec.(i) - 1;
          if violates setup dec then begin
            current := truncate_zeros dec;
            changed := true
          end
        end
      end
    done
  done;
  !current

let witness_report setup decisions =
  let d = witness setup decisions in
  (d, Dfs.replay setup d)
