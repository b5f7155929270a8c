module Clock = Ffault_runtime.Clock
module Metrics = Ffault_telemetry.Metrics
module Cancel = Ffault_runtime.Cancel

let m_flags = Metrics.counter "supervise.watchdog_flags"

type t = {
  hb : Heartbeat.t;
  stall_ns : int;
  clock : Clock.t;
  created_at : int;
  lock : Mutex.t;
  tokens : Cancel.t option array;
  (* The beat timestamp each slot was last flagged at (edge trigger):
     flagging is keyed on the stall epoch, so a slot is flagged once per
     stall, and a fresh beat opens a fresh epoch. min_int = never. *)
  flagged_at : int array;
}

let create ?clock ~heartbeat ~stall_ns () =
  if stall_ns < 1 then invalid_arg "Watchdog.create: stall_ns < 1";
  let clock = Option.value clock ~default:(Heartbeat.clock heartbeat) in
  let n = Heartbeat.slots heartbeat in
  {
    hb = heartbeat;
    stall_ns;
    clock;
    created_at = Clock.now_ns clock;
    lock = Mutex.create ();
    tokens = Array.make n None;
    flagged_at = Array.make n min_int;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let attach t ~slot token = with_lock t (fun () -> t.tokens.(slot) <- Some token)

(* The reference timestamp of a slot's current epoch: its last beat, or
   the watchdog's birth if it never beat (a worker wedged before its
   first beat must still be caught). *)
let epoch t slot =
  match Heartbeat.last_ns t.hb ~slot with Some ts -> ts | None -> t.created_at

let poll t =
  with_lock t (fun () ->
      let now = Clock.now_ns t.clock in
      let stuck = ref [] in
      for slot = Heartbeat.slots t.hb - 1 downto 0 do
        let ep = epoch t slot in
        if now - ep > t.stall_ns && t.flagged_at.(slot) <> ep then begin
          t.flagged_at.(slot) <- ep;
          Metrics.incr m_flags;
          (match t.tokens.(slot) with
          | Some tok ->
              Cancel.cancel tok
                ~reason:(Printf.sprintf "watchdog: no heartbeat for %dms" ((now - ep) / 1_000_000))
          | None -> ());
          stuck := slot :: !stuck
        end
      done;
      !stuck)

let flagged t ~slot = with_lock t (fun () -> t.flagged_at.(slot) = epoch t slot)

type handle = { stop_flag : bool Atomic.t; thread : Thread.t }

let start ?(interval_s = 0.1) t =
  let stop_flag = Atomic.make false in
  let thread =
    Thread.create
      (fun () ->
        while not (Atomic.get stop_flag) do
          ignore (poll t);
          (* sleep in short slices so stop doesn't wait a full interval *)
          let slept = ref 0.0 in
          while (not (Atomic.get stop_flag)) && !slept < interval_s do
            Thread.delay 0.02;
            slept := !slept +. 0.02
          done
        done)
      ()
  in
  { stop_flag; thread }

let stop h = if not (Atomic.exchange h.stop_flag true) then Thread.join h.thread
