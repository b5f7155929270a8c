type event = {
  ph : char;  (* 'B' | 'E' | 'i' *)
  name : string;
  cat : string;
  ts_ns : int;
  tid : int;  (* domain id *)
}

(* One ring per domain shard. Recording under the ring's mutex keeps
   every stored event internally consistent (no torn name/ts pairs when
   domain ids collide on a shard); the mutex is per-ring, so domains
   only ever contend on hash collisions. A ring gets its slots at its
   first record: a process runs far fewer domains than there are
   shards. *)
type ring = {
  lock : Mutex.t;
  mutable capacity : int;
  mutable events : event array;  (* [||] until the first record, then [capacity] slots *)
  mutable head : int;  (* next write position *)
  mutable filled : bool;  (* head has wrapped at least once *)
  mutable dropped : int;
}

let dummy = { ph = 'i'; name = ""; cat = ""; ts_ns = 0; tid = -1 }
let n_rings = Metrics.n_shards
let default_capacity = 65_536

let rings =
  Array.init n_rings (fun _ ->
      {
        lock = Mutex.create ();
        capacity = default_capacity;
        events = [||];
        head = 0;
        filled = false;
        dropped = 0;
      })

let on = Atomic.make false
let enabled () = Atomic.get on

let enable ?(capacity = default_capacity) () =
  if capacity < 2 then invalid_arg "Tracer.enable: capacity < 2";
  Array.iter
    (fun r ->
      Mutex.lock r.lock;
      r.capacity <- capacity;
      r.events <- [||];
      r.head <- 0;
      r.filled <- false;
      r.dropped <- 0;
      Mutex.unlock r.lock)
    rings;
  Atomic.set on true

let disable () = Atomic.set on false

let record ph cat name =
  if Atomic.get on then begin
    let tid = (Domain.self () :> int) in
    let r = rings.(tid land (n_rings - 1)) in
    let ev = { ph; name; cat; ts_ns = Clock.now_ns (); tid } in
    Mutex.lock r.lock;
    if Array.length r.events = 0 then r.events <- Array.make r.capacity dummy;
    if r.filled then r.dropped <- r.dropped + 1;
    r.events.(r.head) <- ev;
    r.head <- r.head + 1;
    if r.head = r.capacity then begin
      r.head <- 0;
      r.filled <- true
    end;
    Mutex.unlock r.lock
  end

let begin_span ?(cat = "") name = record 'B' cat name
let end_span ?(cat = "") name = record 'E' cat name
let instant ?(cat = "") name = record 'i' cat name

let with_span ?cat name f =
  if Atomic.get on then begin
    begin_span ?cat name;
    Fun.protect ~finally:(fun () -> end_span ?cat name) f
  end
  else f ()

(* Collect-and-reset: the trace writer and the piggyback path (a
   worker shipping span batches on its heartbeat frames) want each
   event exactly once, so draining empties every ring while keeping
   the cumulative drop count. *)
let drain () =
  let acc = ref [] in
  Array.iter
    (fun r ->
      Mutex.lock r.lock;
      let n = Array.length r.events in
      if n > 0 then begin
        let len = if r.filled then n else r.head in
        let start = if r.filled then r.head else 0 in
        for k = 0 to len - 1 do
          acc := r.events.((start + k) mod n) :: !acc
        done;
        r.head <- 0;
        r.filled <- false
      end;
      Mutex.unlock r.lock)
    rings;
  List.stable_sort (fun a b -> compare a.ts_ns b.ts_ns) !acc

let event_count () =
  Array.fold_left
    (fun acc r ->
      Mutex.lock r.lock;
      let n = if r.filled then Array.length r.events else r.head in
      Mutex.unlock r.lock;
      acc + n)
    0 rings

let dropped_count () =
  Array.fold_left
    (fun acc r ->
      Mutex.lock r.lock;
      let d = r.dropped in
      Mutex.unlock r.lock;
      acc + d)
    0 rings
