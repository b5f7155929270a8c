(* A structured event log: one process-wide ring per instance, newest
   events overwriting the oldest under pressure (counted, never
   blocking). The shape mirrors Tracer's rings — a mutex-guarded array
   with a wrap flag — but events are rare (joins, lease churn,
   lifecycle), so one ring per log is enough and the lock is cold. *)

type severity = Debug | Info | Warn | Error

let severity_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  seq : int;
  ts_ns : int;
  severity : severity;
  scope : string;
  message : string;
}

type t = {
  lock : Mutex.t;
  now : unit -> int;
  events : event array;  (* length = capacity *)
  mutable head : int;  (* next write position *)
  mutable filled : bool;  (* head has wrapped at least once *)
  mutable seq : int;  (* total events ever emitted *)
  mutable dropped : int;  (* overwritten before anyone read them *)
  mutable sink : (event -> unit) option;
}

let dummy = { seq = -1; ts_ns = 0; severity = Debug; scope = ""; message = "" }

let default_capacity = 1024

let create ?(capacity = default_capacity) ?(now = Clock.now_ns) () =
  if capacity < 2 then invalid_arg "Events.create: capacity < 2";
  {
    lock = Mutex.create ();
    now;
    events = Array.make capacity dummy;
    head = 0;
    filled = false;
    seq = 0;
    dropped = 0;
    sink = None;
  }

(* ---- recording ---- *)

let set_sink t sink =
  Mutex.lock t.lock;
  t.sink <- sink;
  Mutex.unlock t.lock

let emit t ?(severity = Info) ~scope message =
  let ts_ns = t.now () in
  Mutex.lock t.lock;
  let e = { seq = t.seq; ts_ns; severity; scope; message } in
  t.seq <- t.seq + 1;
  if t.filled then t.dropped <- t.dropped + 1;
  t.events.(t.head) <- e;
  t.head <- t.head + 1;
  if t.head = Array.length t.events then begin
    t.head <- 0;
    t.filled <- true
  end;
  let sink = t.sink in
  Mutex.unlock t.lock;
  (* the sink runs outside the lock: it may do file IO *)
  match sink with Some f -> f e | None -> ()

(* ---- reading ---- *)

let tail ?limit t =
  Mutex.lock t.lock;
  let n = Array.length t.events in
  let len = if t.filled then n else t.head in
  let start = if t.filled then t.head else 0 in
  let kept = match limit with Some l when l < len -> max 0 l | _ -> len in
  let out = ref [] in
  for k = len - 1 downto len - kept do
    out := t.events.((start + k) mod n) :: !out
  done;
  Mutex.unlock t.lock;
  !out

let emitted t =
  Mutex.lock t.lock;
  let v = t.seq in
  Mutex.unlock t.lock;
  v

let buffered t =
  Mutex.lock t.lock;
  let v = if t.filled then Array.length t.events else t.head in
  Mutex.unlock t.lock;
  v

let dropped t =
  Mutex.lock t.lock;
  let v = t.dropped in
  Mutex.unlock t.lock;
  v

let clear t =
  Mutex.lock t.lock;
  Array.fill t.events 0 (Array.length t.events) dummy;
  t.head <- 0;
  t.filled <- false;
  t.seq <- 0;
  t.dropped <- 0;
  Mutex.unlock t.lock
