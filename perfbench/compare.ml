(* The compare gate: applies BENCHMARK.json's bounds to two result
   files, a parent's and a change's, written by [run.exe --out FILE].

     compare.exe PARENT CHANGE [--benchmark BENCHMARK.json]

   Prints one row per workload x end-to-end metric: improved,
   unchanged, regressed or unresolved (see Verdict for the rule). Runs
   of the two files are paired in file order; a gain can only be
   claimed when the two sides' runs alternated in time. Exits 1 if any
   row regressed. *)

open Perfbench
module Json = Ffault_campaign.Json

type run = { workload : string; started_ns : int; values : (string * float) list }

let fail msg =
  prerr_endline ("compare.exe: " ^ msg);
  exit 2

let read_lines path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)
  | exception Sys_error m -> fail m

let load path =
  List.filter_map
    (fun line ->
      match Json.of_string line with
      | Error m -> fail (Fmt.str "%s: %s" path m)
      | Ok j ->
          let get name f = Option.bind (Json.member name j) f in
          if get "trace" Json.get_bool = Some true then None
          else
            let values =
              match Json.member "metrics" j with
              | Some (Json.Obj kv) ->
                  List.filter_map
                    (fun (k, m) ->
                      Option.bind (Json.member "value" m) Json.get_float
                      |> Option.map (fun x -> (k, x)))
                    kv
              | _ -> []
            in
            Some
              {
                workload = Option.value ~default:"?" (get "workload" Json.get_str);
                started_ns = Option.value ~default:0 (get "started_ns" Json.get_int);
                values;
              })
    (read_lines path)

(* (name, better, bound) of each end-to-end metric in BENCHMARK.json *)
let bounds path =
  let j =
    match Json.of_string (String.concat "\n" (read_lines path)) with
    | Ok j -> j
    | Error m -> fail (Fmt.str "%s: %s" path m)
  in
  match Option.bind (Json.member "end_to_end" j) Json.get_list with
  | None -> fail (path ^ ": no end_to_end list")
  | Some ms ->
      List.map
        (fun m ->
          let field name f =
            match Option.bind (Json.member name m) f with
            | Some v -> v
            | None -> fail (Fmt.str "%s: an end_to_end entry lacks %s" path name)
          in
          ( field "name" Json.get_str,
            (match Catalog.better_of_string (field "better" Json.get_str) with
            | Some b -> b
            | None -> fail (path ^ ": better must be higher or lower")),
            field "bound" Json.get_float ))
        ms

let () =
  let parent, change, benchmark =
    match List.tl (Array.to_list Sys.argv) with
    | [ p; c ] -> (p, c, "BENCHMARK.json")
    | [ p; c; "--benchmark"; b ] -> (p, c, b)
    | _ -> fail "usage: compare.exe PARENT CHANGE [--benchmark BENCHMARK.json]"
  in
  let parent = load parent and change = load change and bounds = bounds benchmark in
  let workloads =
    List.fold_left
      (fun acc r -> if List.mem r.workload acc then acc else acc @ [ r.workload ])
      [] (parent @ change)
  in
  let regressed = ref false in
  Fmt.pr "%-13s %-14s %14s %14s %8s %7s  %s@." "workload" "metric" "parent" "change" "delta"
    "wins" "verdict";
  List.iter
    (fun w ->
      let p = List.filter (fun r -> r.workload = w) parent
      and c = List.filter (fun r -> r.workload = w) change in
      let alternating =
        Verdict.alternating
          ~parent_starts:(List.map (fun r -> r.started_ns) p)
          ~change_starts:(List.map (fun r -> r.started_ns) c)
      in
      List.iter
        (fun (name, better, bound) ->
          let values runs = List.filter_map (fun r -> List.assoc_opt name r.values) runs in
          let pv = values p and cv = values c in
          let verdict = Verdict.decide ~better ~bound ~alternating ~parent:pv ~change:cv in
          if verdict = Verdict.Regressed then regressed := true;
          match (pv, cv) with
          | [], _ | _, [] ->
              Fmt.pr "%-13s %-14s %14s %14s %8s %7s  %s@." w name "-" "-" "-" "-"
                (Verdict.to_string verdict)
          | _ ->
              let d = Verdict.detail ~better ~parent:pv ~change:cv in
              let mp = Stats.median pv and mc = Stats.median cv in
              Fmt.pr "%-13s %-14s %14.6g %14.6g %+7.2f%% %3d/%-3d  %s%s@." w name mp mc
                (100.0 *. (mc -. mp) /. mp)
                d.Verdict.wins d.Verdict.pairs (Verdict.to_string verdict)
                (if alternating then "" else " (runs did not alternate: no gain can be claimed)"))
        bounds)
    workloads;
  exit (if !regressed then 1 else 0)
