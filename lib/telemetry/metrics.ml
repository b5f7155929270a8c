(* Sharding: domain id modulo a fixed power-of-two slot count. Domain
   ids grow monotonically over the process lifetime, so two live domains
   can collide on a slot — the slots are atomics, so collisions cost
   contention, never correctness. *)

[@@@ffault.lint.allow
  "obj-magic",
    "padded_atomic re-allocates an int Atomic.t with a cache line of trailing words \
     (the multicore-magic padding technique); the copy preserves tag and fields, and \
     the extra words are never scanned as the block keeps its abstract tag"]

let n_shards = 64
let shard () = (Domain.self () :> int) land (n_shards - 1)

(* One cache line of padding around each slot: an [int Atomic.t] is a
   one-word block, and freshly allocated slots would otherwise sit
   adjacent on the minor heap and keep false-sharing each other after
   promotion. [padded_atomic] re-allocates the block with a cache line
   of trailing words (the multicore-magic technique); the copy keeps
   its size across GCs. *)
let cache_line_words = 8

let padded_atomic (v : int) : int Atomic.t =
  let a = Obj.repr (Atomic.make v) in
  let n = Obj.size a in
  let b = Obj.new_block (Obj.tag a) (n + cache_line_words) in
  for i = 0 to n - 1 do
    Obj.set_field b i (Obj.field a i)
  done;
  (Obj.magic b : int Atomic.t)

let make_slots () = Array.init n_shards (fun _ -> padded_atomic 0)
let merge_slots slots = Array.fold_left (fun acc a -> acc + Atomic.get a) 0 slots
let zero_slots slots = Array.iter (fun a -> Atomic.set a 0) slots

(* ---- counters ---- *)

type counter = { c_name : string; c_slots : int Atomic.t array }

(* [shard ()] is masked to [0 .. n_shards-1] and every slot array has
   exactly [n_shards] entries, so the bounds check is redundant. *)
let[@inline] add c n = ignore (Atomic.fetch_and_add (Array.unsafe_get c.c_slots (shard ())) n)
let[@inline] incr c = add c 1

(* ---- gauges ---- *)

(* A gauge is a level, not a flow: [set] must win over stale shard
   contents, so it lives in a single padded atomic (sets are rare). *)
type gauge = { g_name : string; g_cell : int Atomic.t }

let set_gauge g v = Atomic.set g.g_cell v
let add_gauge g n = ignore (Atomic.fetch_and_add g.g_cell n)

(* ---- histograms ---- *)

let n_buckets = 63

let bucket_of v =
  if v <= 0 then 0
  else begin
    let i = ref 0 and v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    min !i (n_buckets - 1)
  end

let bucket_upper_bound i =
  if i <= 0 then 0 else if i >= n_buckets - 1 then max_int else (1 lsl i) - 1

type hist_shard = {
  hs_buckets : int Atomic.t array;
  hs_count : int Atomic.t;
  hs_sum : int Atomic.t;
}

type histogram = { h_name : string; h_shards : hist_shard array }

let observe h v =
  let s = h.h_shards.(shard ()) in
  ignore (Atomic.fetch_and_add s.hs_buckets.(bucket_of v) 1);
  ignore (Atomic.fetch_and_add s.hs_count 1);
  ignore (Atomic.fetch_and_add s.hs_sum v)

(* ---- registry ---- *)

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64
let registry_lock = Mutex.create ()

let register name build project =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry name with
      | Some m -> project m
      | None ->
          let m = build () in
          Hashtbl.add registry name m;
          project m)

let counter name =
  register name
    (fun () -> C { c_name = name; c_slots = make_slots () })
    (function
      | C c -> c
      | G _ | H _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter"))

let gauge name =
  register name
    (fun () -> G { g_name = name; g_cell = padded_atomic 0 })
    (function
      | G g -> g
      | C _ | H _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge"))

let histogram name =
  register name
    (fun () ->
      H
        {
          h_name = name;
          h_shards =
            Array.init n_shards (fun _ ->
                {
                  hs_buckets = Array.init n_buckets (fun _ -> padded_atomic 0);
                  hs_count = padded_atomic 0;
                  hs_sum = padded_atomic 0;
                });
        })
    (function
      | H h -> h
      | C _ | G _ -> invalid_arg ("Metrics.histogram: " ^ name ^ " is not a histogram"))

(* ---- snapshots ---- *)

type hist_view = {
  h_name : string;
  h_count : int;
  h_sum : int;
  h_buckets : (int * int) list;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * int) list;
  histograms : hist_view list;
}

let view_histogram (h : histogram) =
  let buckets = Array.make n_buckets 0 in
  let count = ref 0 and sum = ref 0 in
  Array.iter
    (fun s ->
      Array.iteri (fun i a -> buckets.(i) <- buckets.(i) + Atomic.get a) s.hs_buckets;
      count := !count + Atomic.get s.hs_count;
      sum := !sum + Atomic.get s.hs_sum)
    h.h_shards;
  let bs = ref [] in
  for i = n_buckets - 1 downto 0 do
    if buckets.(i) > 0 then bs := (bucket_upper_bound i, buckets.(i)) :: !bs
  done;
  { h_name = h.h_name; h_count = !count; h_sum = !sum; h_buckets = !bs }

let snapshot () =
  Mutex.lock registry_lock;
  let metrics =
    Fun.protect
      ~finally:(fun () -> Mutex.unlock registry_lock)
      (fun () -> Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  let counters = ref [] and gauges = ref [] and hists = ref [] in
  List.iter
    (function
      | C c -> counters := (c.c_name, merge_slots c.c_slots) :: !counters
      | G g -> gauges := (g.g_name, Atomic.get g.g_cell) :: !gauges
      | H h -> hists := view_histogram h :: !hists)
    metrics;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !counters;
    gauges = List.sort by_name !gauges;
    histograms = List.sort (fun a b -> String.compare a.h_name b.h_name) !hists;
  }

let find_counter s name = List.assoc_opt name s.counters

let find_histogram s name = List.find_opt (fun h -> h.h_name = name) s.histograms

let reset () =
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      Hashtbl.iter
        (fun _ -> function
          | C c -> zero_slots c.c_slots
          | G g -> Atomic.set g.g_cell 0
          | H h ->
              Array.iter
                (fun s ->
                  zero_slots s.hs_buckets;
                  Atomic.set s.hs_count 0;
                  Atomic.set s.hs_sum 0)
                h.h_shards)
        registry)

(* ---- Prometheus-style text exposition ---- *)

(* Metric names here are dotted ("dist.leases_granted"); the exposition
   format allows only [a-zA-Z0-9_:], so everything else becomes '_' and
   the whole name gets an "ffault_" namespace prefix. *)
let expose_name name =
  "ffault_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let expose ?snapshot:snap () =
  let s = match snap with Some s -> s | None -> snapshot () in
  let b = Buffer.create 1024 in
  let scalar kind (name, v) =
    Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" (expose_name name) kind);
    Buffer.add_string b (Printf.sprintf "%s %d\n" (expose_name name) v)
  in
  List.iter (scalar "counter") s.counters;
  List.iter (scalar "gauge") s.gauges;
  List.iter
    (fun h ->
      let n = expose_name h.h_name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      (* h_buckets holds per-bucket counts for the non-empty buckets,
         ascending; Prometheus buckets are cumulative with an explicit
         +Inf equal to the total count. *)
      let cum = ref 0 in
      List.iter
        (fun (ub, c) ->
          cum := !cum + c;
          if ub < max_int then
            Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n ub !cum))
        h.h_buckets;
      Buffer.add_string b (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n h.h_count);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n h.h_sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n h.h_count))
    s.histograms;
  Buffer.contents b
