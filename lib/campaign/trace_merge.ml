(* The one Chrome-trace writer, and the one module that knows the Chrome
   span shape: a span stays a Tracer event until its bytes leave the
   process, in a heartbeat frame or a trace file. Each input becomes a
   pid row, named via a process_name metadata event and repaired to
   balanced B/E pairs, so a campaign run, a coordinator with its
   workers, a worker on its own and a merge of trace files all come out
   the same way. *)

module Tracer = Ffault_telemetry.Tracer
module Tids = Map.Make (Int)

(* "ts" in µs, Chrome's native unit; a file's events add their row's
   pid last. *)
let span_fields (e : Tracer.event) =
  [
    ("name", Json.Str e.name);
    ("cat", Json.Str e.cat);
    ("ph", Json.Str (String.make 1 e.ph));
    ("ts", Json.Float (float_of_int e.ts_ns /. 1e3));
    ("tid", Json.Int e.tid);
  ]

let to_json e = Json.Obj (span_fields e)

(* The µs stamp goes back to the nanosecond the writer divided, so a
   merged file prints the same "ts" bytes as its input. *)
let of_entry j =
  let get k f = Option.bind (Json.member k j) f in
  match
    (get "ph" Json.get_str, get "name" Json.get_str, get "ts" Json.get_float, get "tid" Json.get_int)
  with
  | Some (("B" | "E" | "i") as ph), Some name, Some ts, Some tid ->
      Some
        {
          Tracer.ph = ph.[0];
          name;
          cat = Option.value (get "cat" Json.get_str) ~default:"";
          ts_ns = Float.to_int (Float.round (ts *. 1e3));
          tid;
        }
  | _ -> None

let of_json j =
  let entries =
    match j with
    | Json.List entries -> entries
    | Json.Obj _ -> (
        match Json.member "traceEvents" j with Some (Json.List entries) -> entries | _ -> [])
    | _ -> []
  in
  List.filter_map of_entry entries

(* Rows that grow batch by batch keep what a tracer ring keeps. *)
type row = Tracer.event Queue.t

let row () = Queue.create ()

let add row batch =
  List.iter
    (fun ev ->
      Queue.push ev row;
      if Queue.length row > Tracer.default_capacity then ignore (Queue.pop row))
    batch

let events row = List.of_seq (Queue.to_seq row)

let process_name ~pid name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

(* A row comes in timestamp order, stably: a worker's heartbeat thread
   and its flush beat each drain the tracer and then send, so their
   batches can arrive swapped. Then a ring that overwrote events
   orphans some: an "E" whose "B" was overwritten, or a "B" whose "E"
   never came (still open at the drain, or its process was killed).
   Chrome misrenders an unbalanced track, so a row is repaired per tid:
   an orphan "E" is dropped, and every "B" still open at the end gets
   an "E" at the row's last timestamp, innermost first, tid by tid in
   ascending order. Answers the kept events and those closing ones. *)
let balance events =
  let events =
    List.stable_sort (fun (a : Tracer.event) b -> Int.compare a.ts_ns b.ts_ns) events
  in
  let stacks = ref Tids.empty in
  let kept =
    List.filter
      (fun (e : Tracer.event) ->
        let open_bs = Option.value (Tids.find_opt e.tid !stacks) ~default:[] in
        match e.ph with
        | 'B' ->
            stacks := Tids.add e.tid (e :: open_bs) !stacks;
            true
        | 'E' -> (
            match open_bs with
            | [] -> false
            | _ :: rest ->
                stacks := Tids.add e.tid rest !stacks;
                true)
        | _ -> true)
      events
  in
  let last_ts = List.fold_left (fun _ (e : Tracer.event) -> e.ts_ns) 0 events in
  let close (b : Tracer.event) = { b with ph = 'E'; ts_ns = last_ts } in
  (kept, List.concat_map (fun (_, open_bs) -> List.map close open_bs) (Tids.bindings !stacks))

let write path rows =
  Out_channel.with_open_text path (fun oc ->
      let sep = ref "" in
      let print ev =
        output_string oc !sep;
        sep := ",";
        output_string oc (Json.to_string ev)
      in
      output_string oc "{\"traceEvents\":[";
      List.iteri
        (fun i (label, events) ->
          let pid = i + 1 in
          let print_span e = print (Json.Obj (span_fields e @ [ ("pid", Json.Int pid) ])) in
          print (process_name ~pid label);
          let kept, closes = balance events in
          List.iter print_span kept;
          List.iter print_span closes)
        rows;
      output_string oc "],\"displayTimeUnit\":\"ms\"}\n")
