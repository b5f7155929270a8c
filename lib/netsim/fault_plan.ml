module Rng = Ffault_prng.Rng

type directive =
  | Drop
  | Dup
  | Delay of int
  | Reorder of int

type atom =
  | Frame of { link : int; k : int; d : directive }
  | Partition of { at_ns : int; heal_ns : int; group : int list }
  | Crash of { worker : int; at_ns : int; restart_ns : int }
  | CoordCrash of { at_ns : int; restart_ns : int }

let directive_to_string = function
  | Drop -> "drop"
  | Dup -> "dup"
  | Delay ns -> Printf.sprintf "delay+%dus" (ns / 1_000)
  | Reorder ns -> Printf.sprintf "reorder+%dus" (ns / 1_000)

let atom_to_string = function
  | Frame { link; k; d } ->
      let dir = if link land 1 = 0 then Printf.sprintf "w%d->c" (link / 2)
        else Printf.sprintf "c->w%d" (link / 2)
      in
      Printf.sprintf "frame %s #%d %s" dir k (directive_to_string d)
  | Partition { at_ns; heal_ns; group } ->
      Printf.sprintf "partition {%s} @%dms heal@%dms"
        (String.concat "," (List.map string_of_int group))
        (at_ns / 1_000_000) (heal_ns / 1_000_000)
  | Crash { worker; at_ns; restart_ns } ->
      Printf.sprintf "crash w%d @%dms restart@%dms" worker (at_ns / 1_000_000)
        (restart_ns / 1_000_000)
  | CoordCrash { at_ns; restart_ns } ->
      Printf.sprintf "crash coord @%dms restart@%dms" (at_ns / 1_000_000)
        (restart_ns / 1_000_000)

type params = {
  drop_p : float;
  dup_p : float;
  delay_p : float;
  reorder_p : float;
  max_extra_ns : int;
}

type mode = Generate | Replay of (atom, unit) Hashtbl.t

type t = {
  seed : int64;
  params : params;
  mode : mode;
  all_partitions : (int * int * int list) list;
  all_crashes : (int * int * int) list;
  all_coord_crashes : (int * int) list;
  mutable fired_rev : atom list;
  seen : (int * int, unit) Hashtbl.t;  (* frame queries already recorded *)
  frame_label : Rng.label;  (* "<seed>/frame/", hashed once *)
  latency_label : Rng.label;  (* "<seed>/latency/" *)
}

(* Each decision gets its own generator, seeded by the FNV hash of a
   stable label "<seed>/<what>", so any frame's fate is computable
   without replaying the stream before it. *)
let rng_of seed what = Rng.make ~seed:(Rng.label_seed (Rng.label seed ("/" ^ what)))

let derive_params seed =
  let g = rng_of seed "params" in
  {
    (* bounded so schedules stay live: the reconnect-on-silence worker
       and lease expiry recover from any loss rate under ~1 *)
    drop_p = Rng.float g *. 0.25;
    dup_p = Rng.float g *. 0.15;
    delay_p = Rng.float g *. 0.3;
    reorder_p = Rng.float g *. 0.2;
    max_extra_ns = 1_000_000 + Rng.int g 400_000_000 (* 1ms .. ~400ms *);
  }

let derive_partitions seed ~workers =
  let g = rng_of seed "partitions" in
  let n = Rng.int g 3 in
  List.init n (fun _ ->
      let at_ns = Rng.int g 3_000_000_000 in
      let heal_ns = at_ns + 50_000_000 + Rng.int g 600_000_000 in
      let k = 1 + Rng.int g (max 1 workers) in
      let group = Rng.sample_without_replacement g ~k:(min k workers) ~n:workers in
      (at_ns, heal_ns, group))

let derive_crashes seed ~workers =
  let g = rng_of seed "crashes" in
  let n = Rng.int g 3 in
  List.init n (fun _ ->
      let worker = Rng.int g workers in
      let at_ns = Rng.int g 3_000_000_000 in
      let restart_ns = at_ns + 20_000_000 + Rng.int g 400_000_000 in
      (worker, at_ns, restart_ns))

(* Coordinator crash windows use a fresh label so every pre-existing
   stream (params, partitions, crashes, frame fates) of a given seed is
   untouched — old regression seeds keep their schedules, they just may
   gain a coordinator crash on top. At most one window: a second crash
   of the same process adds no new interleaving class, only run time. *)
let derive_coord_crashes seed =
  let g = rng_of seed "coordcrash" in
  let n = Rng.int g 2 in
  List.init n (fun _ ->
      let at_ns = Rng.int g 3_000_000_000 in
      let restart_ns = at_ns + 20_000_000 + Rng.int g 400_000_000 in
      (at_ns, restart_ns))

let generate ~seed ~workers =
  let t =
    {
      seed;
      params = derive_params seed;
      mode = Generate;
      all_partitions = derive_partitions seed ~workers;
      all_crashes = derive_crashes seed ~workers;
      all_coord_crashes = derive_coord_crashes seed;
      fired_rev = [];
      seen = Hashtbl.create 256;
      frame_label = Rng.label seed "/frame/";
      latency_label = Rng.label seed "/latency/";
    }
  in
  (* windows are part of the schedule whether or not traffic crosses
     them: seed the fired set so the shrinker can take them away *)
  List.iter
    (fun (at_ns, heal_ns, group) ->
      t.fired_rev <- Partition { at_ns; heal_ns; group } :: t.fired_rev)
    t.all_partitions;
  List.iter
    (fun (worker, at_ns, restart_ns) ->
      t.fired_rev <- Crash { worker; at_ns; restart_ns } :: t.fired_rev)
    t.all_crashes;
  List.iter
    (fun (at_ns, restart_ns) ->
      t.fired_rev <- CoordCrash { at_ns; restart_ns } :: t.fired_rev)
    t.all_coord_crashes;
  t

let replay t ~atoms =
  let tbl = Hashtbl.create (List.length atoms * 2 + 1) in
  List.iter (fun a -> Hashtbl.replace tbl a ()) atoms;
  (* window atoms are taken verbatim from [atoms] — a listed window
     fires, an unlisted one is suppressed. This is the subset semantics
     the shrinker needs, and it also admits hand-written crash windows
     (regression reproducers) that the seed never sampled. *)
  {
    t with
    mode = Replay tbl;
    all_partitions =
      List.filter_map
        (function Partition { at_ns; heal_ns; group } -> Some (at_ns, heal_ns, group) | _ -> None)
        atoms;
    all_crashes =
      List.filter_map
        (function Crash { worker; at_ns; restart_ns } -> Some (worker, at_ns, restart_ns) | _ -> None)
        atoms;
    all_coord_crashes =
      List.filter_map
        (function CoordCrash { at_ns; restart_ns } -> Some (at_ns, restart_ns) | _ -> None)
        atoms;
    fired_rev = [];
    seen = Hashtbl.create 256;
  }

let sample_directive t ~link ~k =
  let g = Rng.make ~seed:(Rng.label_seed_ints t.frame_label link k) in
  let p = t.params in
  if Rng.bernoulli g ~p:p.drop_p then Some Drop
  else if Rng.bernoulli g ~p:p.dup_p then Some Dup
  else if Rng.bernoulli g ~p:p.delay_p then Some (Delay (1 + Rng.int g p.max_extra_ns))
  else if Rng.bernoulli g ~p:p.reorder_p then Some (Reorder (1 + Rng.int g p.max_extra_ns))
  else None

let frame_fault t ~link ~k =
  match t.mode with
  | Generate -> (
      match sample_directive t ~link ~k with
      | None -> None
      | Some d ->
          if not (Hashtbl.mem t.seen (link, k)) then begin
            Hashtbl.replace t.seen (link, k) ();
            t.fired_rev <- Frame { link; k; d } :: t.fired_rev
          end;
          Some d)
  | Replay tbl -> (
      (* only an enabled atom fires; the directive itself is still the
         seed's — a disabled (link, k) is simply benign *)
      match sample_directive t ~link ~k with
      | Some d when Hashtbl.mem tbl (Frame { link; k; d }) -> Some d
      | Some _ | None -> None)

let latency_ns t ~link =
  let g = Rng.make ~seed:(Rng.label_seed_int t.latency_label link) in
  50_000 + Rng.int g 2_000_000 (* 50us .. ~2ms *)

let partitions t = t.all_partitions
let crashes t = t.all_crashes
let coord_crashes t = t.all_coord_crashes
let fired t = List.rev t.fired_rev
