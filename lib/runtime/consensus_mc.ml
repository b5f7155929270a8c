module Algorithms = Ffault_consensus.Algorithms
module Bounded_faults = Ffault_consensus.Bounded_faults

type protocol = Single_cas | Sweep of int | Staged of { f : int; t : int } | Silent_retry

let pp_protocol ppf = function
  | Single_cas -> Fmt.string ppf "single-cas"
  | Sweep m -> Fmt.pf ppf "sweep-%d" m
  | Staged { f; t } -> Fmt.pf ppf "staged(f=%d,t=%d)" f t
  | Silent_retry -> Fmt.string ppf "silent-retry"

let objects_needed = function
  | Single_cas | Silent_retry -> 1
  | Sweep m -> m
  | Staged { f; _ } -> f

type config = {
  protocol : protocol;
  n_domains : int;
  inputs : int array;
  plan_for : int -> Faulty_cas.plan;
  style : Faulty_cas.style;
  t_bound : int option;
  deadline_s : float option;
}

let config ?plan_for ?(style = Faulty_cas.Override) ?t_bound ?inputs ?deadline_s ~n_domains
    protocol =
  if n_domains < 1 then invalid_arg "Consensus_mc.config: n_domains < 1";
  (match protocol with
  | Sweep m when m < 1 -> invalid_arg "Consensus_mc.config: Sweep needs m >= 1"
  | Staged { f; t } when f < 1 || t < 1 ->
      invalid_arg "Consensus_mc.config: Staged needs f >= 1 and t >= 1"
  | Single_cas | Sweep _ | Staged _ | Silent_retry -> ());
  if style = Faulty_cas.Hang && deadline_s = None then
    invalid_arg "Consensus_mc.config: Hang style requires a deadline (the trial cannot end)";
  (match deadline_s with
  | Some s when (not (Float.is_finite s)) || s <= 0.0 ->
      invalid_arg "Consensus_mc.config: deadline_s must be finite and positive"
  | _ -> ());
  let inputs =
    match inputs with Some i -> i | None -> Array.init n_domains (fun i -> 100 + i)
  in
  if Array.length inputs <> n_domains then
    invalid_arg "Consensus_mc.config: inputs count differs from n_domains";
  let t_bound =
    match t_bound, protocol with
    | Some t, _ -> Some t
    | None, Staged { t; _ } -> Some t
    | None, (Single_cas | Sweep _ | Silent_retry) -> None
  in
  let plan_for = Option.value plan_for ~default:(fun _ -> Faulty_cas.plan_never) in
  { protocol; n_domains; inputs; plan_for; style; t_bound; deadline_s }

type outcome = Decided of Packed.t | Timed_out of string

type result = {
  outcomes : outcome array;
  decisions : Packed.t array;
  faults_per_object : int array;
  ops_per_object : int array;
  agreed : bool;
  valid : bool;
  timeouts : int;
}

module type DECIDERS = sig
  val single_cas_decide : input:Packed.t -> Packed.t
  val sweep_decide : objects:int -> input:Packed.t -> Packed.t
  val staged_decide : f:int -> max_stage:int -> input:Packed.t -> Packed.t
  val silent_retry_decide : input:Packed.t -> Packed.t
end

let deciders cells : (module DECIDERS) =
  (module Algorithms.Make (struct
    type value = Packed.t

    let bottom = Packed.bottom
    let equal = Packed.equal
    let mk_staged v s = Packed.staged ~value:(Packed.to_int v) ~stage:s
    let stage_of = Packed.stage_of
    let unstage = Packed.unstage

    let cas i ~expected ~desired = Faulty_cas.cas cells.(i) ~expected ~desired
  end))

let execute cfg =
  let n_objects = objects_needed cfg.protocol in
  let cancel =
    match cfg.deadline_s with Some s -> Cancel.after ~seconds:s | None -> Cancel.never
  in
  let cells =
    Array.init n_objects (fun i ->
        Faulty_cas.make ~plan:(cfg.plan_for i) ~style:cfg.style ?t_bound:cfg.t_bound ~cancel
          ~init:Packed.bottom ())
  in
  let (module D) = deciders cells in
  let decide me =
    let input = Packed.of_int cfg.inputs.(me) in
    match cfg.protocol with
    | Single_cas -> D.single_cas_decide ~input
    | Sweep m -> D.sweep_decide ~objects:m ~input
    | Staged { f; t } ->
        D.staged_decide ~f ~max_stage:(Bounded_faults.max_stage ~f ~t) ~input
    | Silent_retry -> D.silent_retry_decide ~input
  in
  let run me =
    match decide me with
    | v -> Decided v
    | exception Cancel.Cancelled reason -> Timed_out reason
  in
  let outcomes = Runner.run_parallel ~domains:cfg.n_domains run in
  let decisions =
    Array.map (function Decided v -> v | Timed_out _ -> Packed.bottom) outcomes
  in
  let decided =
    Array.to_list outcomes
    |> List.filter_map (function Decided v -> Some v | Timed_out _ -> None)
  in
  let timeouts = Array.length outcomes - List.length decided in
  (* Agreement and validity quantify over processes that decided: a
     timed-out process violates wait-freedom (counted in [timeouts]), not
     agreement. With no deadline nothing times out and the semantics
     coincide with the original all-processes formulation. *)
  let agreed =
    match decided with [] -> true | d0 :: rest -> List.for_all (Packed.equal d0) rest
  in
  let valid =
    List.for_all
      (fun d ->
        (not (Packed.is_staged d))
        && (not (Packed.is_bottom d))
        && Array.exists (fun i -> i = Packed.to_int d) cfg.inputs)
      decided
  in
  {
    outcomes;
    decisions;
    faults_per_object = Array.map Faulty_cas.observable_faults cells;
    ops_per_object = Array.map Faulty_cas.ops_performed cells;
    agreed;
    valid;
    timeouts;
  }
