open Ffault_objects

type ctx = {
  obj : Obj_id.t;
  op : Op.t;
  state : Value.t;
  proc : int;
  step : int;
  op_index : int;
  budget : Budget.t;
}

type decision = No_fault | Fault of { kind : Fault_kind.t; payload : Value.t option }

type t = { name : string; decide : ctx -> decision }

let arbitrary_payload_default ctx = Value.Pair (Str "junk", Int ctx.op_index)

let invisible_payload_default ctx =
  (* Any value different from the true old value violates Φ's [old = R′]. *)
  let candidate = Value.Pair (Str "ghost", Int ctx.op_index) in
  if Value.equal candidate ctx.state then Value.Pair (Str "ghost'", Int ctx.op_index)
  else candidate

let payload_for kind payload ctx =
  match payload with
  | Some f -> Some (f ctx)
  | None -> (
      match kind with
      | Fault_kind.Invisible -> Some (invisible_payload_default ctx)
      | Arbitrary -> Some (arbitrary_payload_default ctx)
      | Relaxation -> Some (Value.Int 1) (* skip the head by default *)
      | Overriding | Silent | Nonresponsive -> None)

let fault_decision kind payload ctx = Fault { kind; payload = payload_for kind payload ctx }

let never = { name = "never"; decide = (fun _ -> No_fault) }

let always ?payload kind =
  {
    name = Fmt.str "always-%a" Fault_kind.pp kind;
    decide = (fun ctx -> fault_decision kind payload ctx);
  }

let probabilistic ~seed ~p ?payload kind =
  let rng = Ffault_prng.Rng.make ~seed in
  {
    name = Fmt.str "p=%.3f-%a" p Fault_kind.pp kind;
    decide =
      (fun ctx ->
        if Ffault_prng.Rng.bernoulli rng ~p then fault_decision kind payload ctx else No_fault);
  }

let by_process ~procs ?payload kind =
  {
    name = Fmt.str "by-process-%a" Fault_kind.pp kind;
    decide =
      (fun ctx ->
        if List.mem ctx.proc procs && Op.is_cas ctx.op then fault_decision kind payload ctx
        else No_fault);
  }

let on_invocations plan =
  {
    name = "scripted";
    decide =
      (fun ctx ->
        match List.assoc_opt ctx.op_index plan with Some d -> d | None -> No_fault);
  }

let on_object_invocations ?(kind = Fault_kind.Overriding) script =
  let counters : (int, int) Hashtbl.t = Hashtbl.create 8 in
  {
    name = "per-object-scripted";
    decide =
      (fun ctx ->
        let id = Obj_id.to_int ctx.obj in
        let k = Option.value ~default:0 (Hashtbl.find_opt counters id) in
        Hashtbl.replace counters id (k + 1);
        match List.assoc_opt id script with
        | Some ks when List.mem k ks -> fault_decision kind None ctx
        | Some _ | None -> No_fault);
  }

let first_on_each_object ?payload kind =
  let seen : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  {
    name = Fmt.str "first-per-object-%a" Fault_kind.pp kind;
    decide =
      (fun ctx ->
        let id = Obj_id.to_int ctx.obj in
        if Op.writes ctx.op && not (Hashtbl.mem seen id) then begin
          Hashtbl.replace seen id ();
          fault_decision kind payload ctx
        end
        else No_fault);
  }

let mixed ~seed ?payload weighted =
  let total = List.fold_left (fun acc (_, p) -> acc +. p) 0.0 weighted in
  if List.exists (fun (_, p) -> p < 0.0) weighted || total > 1.0 +. 1e-9 then
    invalid_arg "Injector.mixed: probabilities must be non-negative and sum to at most 1";
  let rng = Ffault_prng.Rng.make ~seed in
  let name =
    Fmt.str "mixed(%a)"
      (Fmt.list ~sep:Fmt.comma (fun ppf (k, p) -> Fmt.pf ppf "%a:%.2f" Fault_kind.pp k p))
      weighted
  in
  {
    name;
    decide =
      (fun ctx ->
        let draw = Ffault_prng.Rng.float rng in
        let rec pick acc = function
          | [] -> No_fault
          | (kind, p) :: rest ->
              if draw < acc +. p then fault_decision kind payload ctx else pick (acc +. p) rest
        in
        pick 0.0 weighted);
  }

let custom ~name decide = { name; decide }
