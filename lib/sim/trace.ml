open Ffault_objects
module Fault_kind = Ffault_fault.Fault_kind
module Classify = Ffault_hoare.Classify
module Triple = Ffault_hoare.Triple
module Recover_spec = Ffault_hoare.Recover_spec
module Crash_plan = Ffault_recover.Crash_plan

type event =
  | Op_step of {
      step : int;
      proc : int;
      obj : Obj_id.t;
      op : Op.t;
      pre_state : Value.t;
      post_state : Value.t;
      response : Value.t;
      injected : Fault_kind.t option;
    }
  | Hang of { step : int; proc : int; obj : Obj_id.t; op : Op.t }
  | Corruption of { step : int; obj : Obj_id.t; before : Value.t; after : Value.t }
  | Decided of { step : int; proc : int; value : Value.t }
  | Step_limit_hit of { step : int; proc : int }
  | Crashed of { step : int; proc : int; error : string }
  | Proc_crash of {
      step : int;
      proc : int;
      obj : Obj_id.t;
      op : Op.t;
      pre_state : Value.t;
      post_state : Value.t;
      effect : Crash_plan.crash_effect;
    }
  | Nvm_loss of { step : int; obj : Obj_id.t; before : Value.t; after : Value.t }
  | Restart of { step : int; proc : int }

type t = event list

let pp_event ~world ppf = function
  | Op_step { step; proc; obj; op; pre_state; post_state; response; injected } ->
      Fmt.pf ppf "[%4d] p%d %s.%a : %a \xe2\x86\x92 %a, returns %a%a" step proc
        (World.label_of world obj) Op.pp op Value.pp pre_state Value.pp post_state Value.pp
        response
        (Fmt.option (fun ppf k -> Fmt.pf ppf "   !! %a fault" Fault_kind.pp k))
        injected
  | Hang { step; proc; obj; op } ->
      Fmt.pf ppf "[%4d] p%d %s.%a : hangs (nonresponsive fault)" step proc
        (World.label_of world obj) Op.pp op
  | Corruption { step; obj; before; after } ->
      Fmt.pf ppf "[%4d] data fault: %s : %a \xe2\x86\x92 %a" step (World.label_of world obj)
        Value.pp before Value.pp after
  | Decided { step; proc; value } ->
      Fmt.pf ppf "[%4d] p%d decides %a" step proc Value.pp value
  | Step_limit_hit { step; proc } -> Fmt.pf ppf "[%4d] p%d exceeded its step budget" step proc
  | Crashed { step; proc; error } -> Fmt.pf ppf "[%4d] p%d crashed: %s" step proc error
  | Proc_crash { step; proc; obj; op; pre_state; post_state; effect } ->
      Fmt.pf ppf "[%4d] p%d crash-restarts in %s.%a : %a \xe2\x86\x92 %a (op %a)" step proc
        (World.label_of world obj) Op.pp op Value.pp pre_state Value.pp post_state
        Crash_plan.pp_crash_effect effect
  | Nvm_loss { step; obj; before; after } ->
      Fmt.pf ppf "[%4d] nvm loss: %s : %a \xe2\x86\x92 %a" step (World.label_of world obj)
        Value.pp before Value.pp after
  | Restart { step; proc } ->
      Fmt.pf ppf "[%4d] p%d restarts at its recovery section" step proc

let pp ~world ppf t = Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut (pp_event ~world)) t

let injected_faults t =
  List.filter_map
    (function
      | Op_step { obj; injected = Some k; _ } -> Some (obj, k)
      | Hang { obj; _ } -> Some (obj, Fault_kind.Nonresponsive)
      | Op_step _ | Corruption _ | Decided _ | Step_limit_hit _ | Crashed _ | Proc_crash _
      | Nvm_loss _ | Restart _ ->
          None)
    t

type audit_error = { at_step : int; reason : string }

let audit ~world t =
  List.filter_map
    (function
      | Op_step { step; obj; op; pre_state; post_state; response; injected; _ } -> (
          let kind = World.kind_of world obj in
          let hstep = { Triple.kind; pre_state; op; post_state; response } in
          if not (Triple.precondition_met Triple.correct hstep) then
            Some { at_step = step; reason = "step violates the operation's precondition" }
          else
            let satisfies_phi = Triple.correct.Triple.post hstep in
            match injected with
            | None ->
                if satisfies_phi then None
                else
                  Some
                    {
                      at_step = step;
                      reason = "unlabeled step violates the sequential specification \xce\xa6";
                    }
            | Some k ->
                if satisfies_phi then
                  Some
                    {
                      at_step = step;
                      reason =
                        Fmt.str
                          "step labeled %a satisfies \xce\xa6 \xe2\x80\x94 not a fault per Definition 1"
                          Fault_kind.pp k;
                    }
                else (
                  match Fault_kind.phi'_for k op with
                  | Some phi' when phi' hstep -> None
                  | Some _ ->
                      Some
                        {
                          at_step = step;
                          reason =
                            Fmt.str "step does not satisfy the \xce\xa6' of its %a label"
                              Fault_kind.pp k;
                        }
                  | None ->
                      Some
                        {
                          at_step = step;
                          reason =
                            Fmt.str "no \xce\xa6' is defined for %a on this operation"
                              Fault_kind.pp k;
                        }))
      | Proc_crash { step; obj; op; pre_state; post_state; effect; _ } ->
          (* Recoverable linearizability at the step level: the crashed
             operation's state transition must match its label — vanished
             (no effect) or linearized (full sequential-spec effect), and
             never some third, half-applied shape. The response was lost
             with the process, so only states are compared. *)
          let kind = World.kind_of world obj in
          let hstep = { Triple.kind; pre_state; op; post_state; response = Value.Bottom } in
          let holds =
            match effect with
            | Crash_plan.Vanish -> Recover_spec.vanished hstep
            | Crash_plan.Linearize -> Recover_spec.linearized hstep
          in
          if holds then None
          else
            Some
              {
                at_step = step;
                reason =
                  Fmt.str
                    "crashed step labeled %a is neither a vanish nor a linearization of %a"
                    Crash_plan.pp_crash_effect effect Op.pp op;
              }
      | Hang _ | Corruption _ | Decided _ | Step_limit_hit _ | Crashed _ | Nvm_loss _
      | Restart _ ->
          None)
    t
