open Ffault_objects

type step = {
  kind : Kind.t;
  pre_state : Value.t;
  op : Op.t;
  post_state : Value.t;
  response : Value.t;
}

type pre = Kind.t -> state:Value.t -> Op.t -> bool
type post = step -> bool
type t = { name : string; pre : pre; post : post }

let precondition_met tr step = tr.pre step.kind ~state:step.pre_state step.op

let holds tr step = (not (precondition_met tr step)) || tr.post step

let correct_pre kind ~state op =
  match Semantics.apply kind ~state op with Ok _ -> true | Error _ -> false

let correct_post step =
  match Semantics.apply step.kind ~state:step.pre_state step.op with
  | Error _ -> false
  | Ok { post_state; response } ->
      Value.equal post_state step.post_state && Value.equal response step.response

let correct = { name = "sequential-spec"; pre = correct_pre; post = correct_post }

let respects_sequential_spec step = holds correct step
