module Clock = Ffault_runtime.Clock

(* The queue is a binary min-heap in an array, ordered by (ns, seq).
   [seq] is unique per event, so the order is total: events run in
   exactly the order a sorted map over the same keys would give. *)
type ev = { ns : int; seq : int; f : unit -> unit }

type t = {
  v : Clock.Virtual.t;
  mutable heap : ev array;
  mutable size : int;
  mutable seq : int;
  mutable executed : int;
}

(* fills the free slots, so a popped thunk is not kept alive *)
let hole = { ns = 0; seq = 0; f = ignore }

let create ?(start_ns = 0) () =
  let v = Clock.Virtual.create ~start_ns () in
  { v; heap = Array.make 64 hole; size = 0; seq = 0; executed = 0 }

let clock t = Clock.Virtual.clock t.v
let now_ns t = Clock.Virtual.now_ns t.v
let before a b = a.ns < b.ns || (a.ns = b.ns && a.seq < b.seq)

let rec sift_up h i e =
  let p = (i - 1) / 2 in
  if i > 0 && before e h.(p) then (h.(i) <- h.(p); sift_up h p e) else h.(i) <- e

let rec sift_down h n i e =
  let l = (2 * i) + 1 in
  let c = if l + 1 < n && before h.(l + 1) h.(l) then l + 1 else l in
  if c < n && before h.(c) e then (h.(i) <- h.(c); sift_down h n c e) else h.(i) <- e

let at t ~ns f =
  let e = { ns = Int.max ns (now_ns t); seq = t.seq; f } in
  t.seq <- t.seq + 1;
  if t.size = Array.length t.heap then begin
    let bigger = Array.make (2 * t.size) hole in
    Array.blit t.heap 0 bigger 0 t.size;
    t.heap <- bigger
  end;
  t.size <- t.size + 1;
  sift_up t.heap (t.size - 1) e

let after t ~ns f =
  if ns < 0 then invalid_arg "Sched.after: negative delay";
  at t ~ns:(now_ns t + ns) f

let pending t = t.size

let rec run t ~until_ns =
  if t.size = 0 then `Drained
  else
    let top = t.heap.(0) in
    if top.ns > until_ns then begin
      if until_ns > now_ns t then Clock.Virtual.set t.v ~ns:until_ns;
      `Horizon
    end
    else begin
      t.size <- t.size - 1;
      let last = t.heap.(t.size) in
      t.heap.(t.size) <- hole;
      if t.size > 0 then sift_down t.heap t.size 0 last;
      Clock.Virtual.set t.v ~ns:top.ns;
      t.executed <- t.executed + 1;
      top.f ();
      run t ~until_ns
    end

let executed t = t.executed
