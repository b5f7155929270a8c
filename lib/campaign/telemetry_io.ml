module Metrics = Ffault_telemetry.Metrics

let g_peak_rss = Metrics.gauge "process.peak_rss_kb"

(* The [VmHWM:] line of /proc/self/status ("VmHWM:\t   23384 kB"); 0 where
   the file cannot be read or holds no such line. *)
let peak_rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> int_of_string_opt kb
                 | [] -> None)
             | _ -> None)
      |> Option.value ~default:0

let snapshot () =
  Metrics.set_gauge g_peak_rss (peak_rss_kb ());
  Metrics.snapshot ()

let to_json (s : Metrics.snapshot) =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.Metrics.counters));
      ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.Metrics.gauges));
      ( "histograms",
        Json.Obj
          (List.map
             (fun (h : Metrics.hist_view) ->
               ( h.Metrics.h_name,
                 Json.Obj
                   [
                     ("count", Json.Int h.Metrics.h_count);
                     ("sum", Json.Int h.Metrics.h_sum);
                     ( "buckets",
                       Json.List
                         (List.map
                            (fun (ub, c) -> Json.List [ Json.Int ub; Json.Int c ])
                            h.Metrics.h_buckets) );
                   ] ))
             s.Metrics.histograms) );
    ]

let write ~dir s =
  Checkpoint.write_atomic
    ~path:(Checkpoint.telemetry_path ~dir)
    (Json.to_string (to_json s) ^ "\n")

let load ~dir =
  let path = Checkpoint.telemetry_path ~dir in
  if not (Sys.file_exists path) then None
  else
    match In_channel.with_open_text path In_channel.input_all with
    | text -> (
        match Json.of_string (String.trim text) with Ok j -> Some j | Error _ -> None)
    | exception Sys_error _ -> None
