type plan = { plan_name : string; fire : op_index:int -> bool }

let plan_never = { plan_name = "never"; fire = (fun ~op_index:_ -> false) }
let plan_always = { plan_name = "always"; fire = (fun ~op_index:_ -> true) }

let plan_probabilistic ~seed ~p =
  if not (p >= 0.0 && p <= 1.0) then
    invalid_arg "Faulty_cas.plan_probabilistic: p must lie in [0, 1]";
  let plan_name = Printf.sprintf "p=%.3f" p in
  (* p · 2^63 overflows at p = 1, so that plan skips the draw *)
  if p = 1.0 then { plan_always with plan_name }
  else
    let threshold = Int64.of_float (p *. 9.223372036854775807e18) in
    {
      plan_name;
      fire =
        (fun ~op_index ->
          let h = Ffault_prng.Splitmix.hash (Int64.add seed (Int64.of_int op_index)) in
          (* use the low 63 bits as a uniform non-negative draw *)
          Int64.shift_right_logical h 1 < threshold);
    }

let plan_first_n n = { plan_name = Printf.sprintf "first-%d" n; fire = (fun ~op_index -> op_index < n) }

let plan_every_kth k =
  if k < 1 then invalid_arg "Faulty_cas.plan_every_kth: k < 1";
  { plan_name = Printf.sprintf "every-%dth" k; fire = (fun ~op_index -> op_index mod k = 0) }

type style = Override | Suppress | Hang

type t = {
  cell : Packed.t Atomic.t;
  plan : plan;
  style : style;
  t_bound : int option;
  charged : int Atomic.t;
  ops : int Atomic.t;
  cancel : Cancel.t;
}

let make ?(plan = plan_never) ?(style = Override) ?t_bound ?(cancel = Cancel.never) ~init () =
  {
    cell = Atomic.make init;
    plan;
    style;
    t_bound;
    charged = Atomic.make 0;
    ops = Atomic.make 0;
    cancel;
  }

(* Reserve one fault from the budget; refunded if the injection turns out
   unobservable. *)
let try_reserve c =
  match c.t_bound with
  | None ->
      Atomic.incr c.charged;
      true
  | Some t ->
      let rec go () =
        let cur = Atomic.get c.charged in
        if cur >= t then false
        else if Atomic.compare_and_set c.charged cur (cur + 1) then true
        else go ()
      in
      go ()

let refund c = ignore (Atomic.fetch_and_add c.charged (-1))

let correct_cas ~cancel cell ~expected ~desired =
  let rec go () =
    let cur = Atomic.get cell in
    if Packed.equal cur expected then
      if Atomic.compare_and_set cell expected desired then cur
      else begin
        (* Losing the CAS race is the only spin here; under adversarial
           contention it can livelock, so poll the token per retry. *)
        Cancel.check cancel;
        go ()
      end
    else cur
  in
  go ()

(* The §3.4 nonresponsive fault: the invocation never returns. The only
   exit is the cancellation token — callers without a deadline hang, by
   design (see the .mli). *)
let hang cancel =
  while true do
    Cancel.check cancel;
    Domain.cpu_relax ()
  done

let cas c ~expected ~desired =
  (* Poll at every invocation, not only on contended retries: a livelocked
     protocol loop (e.g. silent-retry under suppression) performs an
     unbounded sequence of individually-fast CASes and would otherwise
     never observe the deadline. *)
  Cancel.check c.cancel;
  let op_index = Atomic.fetch_and_add c.ops 1 in
  if c.plan.fire ~op_index && try_reserve c then begin
    match c.style with
    | Override ->
        let old = Atomic.exchange c.cell desired in
        (* Unobservable injections (Φ still holds) are not faults: refund. *)
        if Packed.equal old expected || Packed.equal old desired then refund c;
        old
    | Suppress ->
        (* The write is dropped: the operation linearizes at this read.
           Observable only if a correct CAS would have changed the value. *)
        let old = Atomic.get c.cell in
        if not (Packed.equal old expected && not (Packed.equal old desired)) then refund c;
        old
    | Hang ->
        (* Never unobservable: the caller is stuck, so the charge stands. *)
        hang c.cancel;
        assert false
  end
  else correct_cas ~cancel:c.cancel c.cell ~expected ~desired

let observable_faults c = Atomic.get c.charged
let ops_performed c = Atomic.get c.ops
let peek c = Atomic.get c.cell
