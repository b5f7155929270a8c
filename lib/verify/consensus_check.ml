open Ffault_objects
open Ffault_sim
module Fault = Ffault_fault
module Consensus = Ffault_consensus
module Protocol = Consensus.Protocol
module Persistence = Ffault_recover.Persistence

type violation =
  | Validity of { proc : int; decided : Value.t }
  | Consistency of { proc_a : int; val_a : Value.t; proc_b : int; val_b : Value.t }
  | Wait_freedom of { proc : int; outcome : Engine.proc_outcome }

let violation_to_string v =
  let b = Buffer.create 64 in
  let text = Buffer.add_string b in
  (match v with
  | Validity { proc; decided } ->
      text "validity: p";
      Value.add_int b proc;
      text " decided ";
      Value.add b decided;
      text ", which is no process's input"
  | Consistency { proc_a; val_a; proc_b; val_b } ->
      text "consistency: p";
      Value.add_int b proc_a;
      text " decided ";
      Value.add b val_a;
      text " but p";
      Value.add_int b proc_b;
      text " decided ";
      Value.add b val_b
  | Wait_freedom { proc; outcome } ->
      text "wait-freedom: p";
      Value.add_int b proc;
      text " did not decide (";
      text (Engine.proc_outcome_to_string outcome);
      text ")");
  Buffer.contents b

let pp_violation ppf v = Fmt.string ppf (violation_to_string v)

type report = { violations : violation list; result : Engine.result }

let ok r = r.violations = []

type recover_opts = { crashes_per_proc : int; persistence : Persistence.mode }

type setup = {
  protocol : Protocol.t;
  params : Protocol.params;
  inputs : Value.t array;
  allowed_faults : Fault.Fault_kind.t list;
  payload_palette : Value.t list;
  victims : Obj_id.t list option;
  step_slack : int;
  recover : recover_opts option;
  world : World.t;
}

let setup ?inputs ?(allowed_faults = [ Fault.Fault_kind.Overriding ]) ?(payload_palette = [])
    ?victims ?(step_slack = 2) ?recover protocol params =
  let inputs = match inputs with Some i -> i | None -> Protocol.default_inputs params in
  if Array.length inputs <> params.Protocol.n_procs then
    invalid_arg "Consensus_check.setup: inputs count differs from n_procs";
  (match recover with
  | Some { crashes_per_proc; _ } when crashes_per_proc < 0 ->
      invalid_arg "Consensus_check.setup: crashes_per_proc < 0"
  | _ -> ());
  (* The protocol's own parameter checks live in its objects and its
     step bound (Fig. 3 needs f >= 1 and a bounded t): force them here,
     so an unbuildable instance fails at setup, not mid-run. The world is
     immutable, so every run shares the one built here. *)
  let world = Protocol.world protocol params in
  ignore (protocol.Protocol.max_steps_hint params);
  { protocol; params; inputs; allowed_faults; payload_palette; victims; step_slack; recover;
    world }

let crashes_per_proc s =
  match s.recover with None -> 0 | Some r -> r.crashes_per_proc

let persistence s =
  match s.recover with None -> Persistence.Persist_all | Some r -> r.persistence

let world s = s.world

let budget s =
  Fault.Budget.create ?victims:s.victims ~max_crashes_per_proc:(crashes_per_proc s)
    ~max_faulty_objects:s.params.Protocol.f ~max_faults_per_object:s.params.Protocol.t ()

let engine_config ?interrupt s =
  let hint = s.protocol.Protocol.max_steps_hint s.params in
  (* Each crash-restart re-runs up to a full incarnation, so the
     wait-freedom budget scales with the crash cap: a restart must never
     read as a spurious Exhausted. *)
  let per_proc = s.step_slack * hint * (1 + crashes_per_proc s) in
  Engine.config ~allowed_faults:s.allowed_faults ~payload_palette:s.payload_palette
    ~max_steps_per_proc:per_proc
    ~max_total_steps:(per_proc * s.params.Protocol.n_procs)
    ?interrupt ~persistence:(persistence s) ~world:s.world ~budget:(budget s) ()

let check_result s (r : Engine.result) =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  Array.iteri
    (fun proc outcome ->
      match outcome with
      | Engine.Decided v ->
          if not (Array.exists (Value.equal v) s.inputs) then add (Validity { proc; decided = v })
      | Engine.Hung | Engine.Exhausted _ | Engine.Step_limited | Engine.Crashed _ ->
          add (Wait_freedom { proc; outcome })
      | Engine.Cancelled ->
          (* The harness truncated the run (a deadline), so no
             verdict can be drawn about the protocol: not a violation.
             Callers must consult [result.interrupted] and report the run
             as timed out, never as passing. *)
          ())
    r.Engine.outcomes;
  (match Engine.decided_values r with
  | [] | [ _ ] -> ()
  | (proc_a, val_a) :: rest ->
      List.iter
        (fun (proc_b, val_b) ->
          if not (Value.equal val_a val_b) then
            add (Consistency { proc_a; val_a; proc_b; val_b }))
        rest);
  List.rev !violations

let setup_name s = Fmt.str "%s %a" s.protocol.Protocol.name Protocol.pp_params s.params

let recovery_of s =
  if crashes_per_proc s = 0 then None
  else Some (Protocol.recovery_bodies s.protocol s.params ~inputs:s.inputs)

let run ?interrupt s ~scheduler ~injector ?data_faults () =
  let cfg = engine_config ?interrupt s in
  let bodies = Protocol.bodies s.protocol s.params ~inputs:s.inputs in
  let result = Engine.run cfg ~scheduler ~injector ?data_faults ~bodies () in
  { violations = check_result s result; result }

let run_with_driver ?interrupt s driver =
  let cfg = engine_config ?interrupt s in
  let bodies = Protocol.bodies s.protocol s.params ~inputs:s.inputs in
  let result = Engine.run_with_driver ?recovery:(recovery_of s) cfg driver ~bodies in
  { violations = check_result s result; result }
