module Clock = Ffault_runtime.Clock

(* -1 = never beat. Plain int Atomics, one per slot: a beat is a single
   store on the slot's own word, so beacons never contend with each
   other. (No cache padding — beats are per-trial, not per-step.) *)
type t = { last : int Atomic.t array; clock : Clock.t }

let create ?(clock = Clock.monotonic) ~slots () =
  if slots < 1 then invalid_arg "Heartbeat.create: slots < 1";
  { last = Array.init slots (fun _ -> Atomic.make (-1)); clock }

let slots t = Array.length t.last

let clock t = t.clock

let beat t ~slot = Atomic.set t.last.(slot) (Clock.now_ns t.clock)

let last_ns t ~slot =
  match Atomic.get t.last.(slot) with -1 -> None | ts -> Some ts

let age_ns t ~slot =
  match last_ns t ~slot with
  | None -> None
  | Some ts -> Some (max 0 (Clock.now_ns t.clock - ts))
