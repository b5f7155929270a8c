module Rng = Ffault_prng.Rng

let schedule_seed ~root i = Rng.label_seed_int (Rng.label root "#") i

let max_probes = 400

(* split [l] into chunks of [size] (last may be short) *)
let chunks_of size l =
  let rec go acc cur n = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if n = size then go (List.rev cur :: acc) [ x ] 1 rest
        else go acc (x :: cur) (n + 1) rest
  in
  go [] [] 0 l

let shrink ~config ~seed ~atoms ~violation =
  let probes = ref 0 in
  let check sub =
    if !probes >= max_probes then None
    else begin
      incr probes;
      (Sim.run ~atoms:sub ~trace:false config ~seed).Sim.violation
    end
  in
  (* ddmin (Zeller-Hildebrandt): probe chunks, then complements, at
     doubling granularity, keeping any failing subset *)
  let rec ddmin current cur_v n =
    let len = List.length current in
    if len <= 1 || !probes >= max_probes then (current, cur_v)
    else begin
      let n = min n len in
      let size = (len + n - 1) / n in
      let cs = chunks_of size current in
      let rec probe_chunks = function
        | [] -> None
        | c :: rest -> (
            match check c with Some v -> Some (c, v, 2) | None -> probe_chunks rest)
      in
      let rec probe_compls i =
        if i >= List.length cs then None
        else
          let compl = List.concat (List.filteri (fun j _ -> j <> i) cs) in
          match check compl with
          | Some v -> Some (compl, v, max (n - 1) 2)
          | None -> probe_compls (i + 1)
      in
      let reduced =
        match probe_chunks cs with Some r -> Some r | None -> probe_compls 0
      in
      match reduced with
      | Some (sub, v, n') -> ddmin sub v n'
      | None -> if n >= len then (current, cur_v) else ddmin current cur_v (2 * n)
    end
  in
  let minimal, v = ddmin atoms violation 2 in
  (minimal, v, !probes)

type report = {
  s_index : int;
  s_seed : int64;
  s_violation : Sim.violation;
  s_fired : int;
  s_shrunk : Fault_plan.atom list;
  s_shrunk_violation : Sim.violation;
  s_probes : int;
}

type sweep = { explored : int; violations : report list; total_events : int }

let explore ?(on_progress = fun _ -> ()) ?(max_violations = 1) ~config ~root
    ~schedules () =
  let viols = ref [] in
  let events = ref 0 in
  let explored = ref 0 in
  (try
     for i = 0 to schedules - 1 do
       let seed = schedule_seed ~root i in
       let r = Sim.run ~trace:false config ~seed in
       explored := i + 1;
       events := !events + r.Sim.events;
       (match r.Sim.violation with
       | None -> ()
       | Some v ->
           let shrunk, sv, probes =
             shrink ~config ~seed ~atoms:r.Sim.fired ~violation:v
           in
           viols :=
             {
               s_index = i;
               s_seed = seed;
               s_violation = v;
               s_fired = List.length r.Sim.fired;
               s_shrunk = shrunk;
               s_shrunk_violation = sv;
               s_probes = probes;
             }
             :: !viols;
           if List.length !viols >= max_violations then raise Exit);
       on_progress i
     done
   with Exit -> ());
  { explored = !explored; violations = List.rev !viols; total_events = !events }
