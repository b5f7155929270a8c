(* The one Chrome-trace writer: each input becomes a pid row, named via
   a process_name metadata event and repaired to balanced B/E pairs, so
   a campaign run, a coordinator with its workers, a worker on its own
   and a merge of trace files all come out the same way. *)

module Tracer = Ffault_telemetry.Tracer

(* Drained tracer events as pid-less Chrome spans ("ts" in µs, Chrome's
   native unit) — the shape workers ship on heartbeats and [merge]
   stamps pids onto. *)
let of_tracer_events evs =
  List.map
    (fun (e : Tracer.event) ->
      Json.Obj
        [
          ("name", Json.Str e.Tracer.name);
          ("cat", Json.Str e.Tracer.cat);
          ("ph", Json.Str (String.make 1 e.Tracer.ph));
          ("ts", Json.Float (float_of_int e.Tracer.ts_ns /. 1e3));
          ("tid", Json.Int e.Tracer.tid);
        ])
    evs

let events_of_trace j =
  match j with
  | Json.Obj _ -> (
      match Json.member "traceEvents" j with
      | Some (Json.List evs) -> evs
      | Some _ | None -> [])
  | Json.List evs -> evs
  | _ -> []

(* Rows that grow batch by batch keep what a tracer ring keeps. *)
type row = Json.t Queue.t

let row () = Queue.create ()

let add row batch =
  List.iter
    (fun ev ->
      Queue.push ev row;
      if Queue.length row > Tracer.default_capacity then ignore (Queue.pop row))
    batch

let events row = List.of_seq (Queue.to_seq row)

(* [ev] with field [k] set to [v] in place, or added at the end: a
   source's own pid (its OS pid, meaningless once rows are merged) is
   replaced. *)
let with_field k v ev =
  match ev with
  | Json.Obj fields when List.mem_assoc k fields ->
      Json.Obj (List.map (fun (k', x) -> if k' = k then (k, v) else (k', x)) fields)
  | Json.Obj fields -> Json.Obj (fields @ [ (k, v) ])
  | other -> other

let process_name ~pid name =
  Json.Obj
    [
      ("name", Json.Str "process_name");
      ("ph", Json.Str "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.Str name) ]);
    ]

(* A source's own process_name metadata would fight the fresh row label
   once its pid is reassigned (e.g. merging an already-merged trace). *)
let is_process_name ev = Json.member "name" ev = Some (Json.Str "process_name")

let ts ev = Option.bind (Json.member "ts" ev) Json.get_float

(* A row comes in timestamp order, stably: a worker's heartbeat thread
   and its flush beat each drain the tracer and then send, so their
   batches can arrive swapped. Then a ring that overwrote events
   orphans some: an "E" whose "B" was overwritten, or a "B" whose "E"
   never came (still open at the drain, or its process was killed).
   Chrome misrenders an unbalanced track, so a row is repaired per tid,
   its pid being the row's: an orphan "E" is dropped, and every "B"
   still open at the end gets an "E" at the row's last timestamp,
   innermost first. *)
let balance events =
  let events =
    List.stable_sort (fun a b -> Option.compare Float.compare (ts a) (ts b)) events
  in
  let last_ts =
    List.fold_left (fun m ev -> match ts ev with None -> m | t -> t) None events
  in
  let stacks = Hashtbl.create 8 in
  let kept =
    List.filter
      (fun ev ->
        let tid = Json.member "tid" ev in
        let open_bs = Option.value (Hashtbl.find_opt stacks tid) ~default:[] in
        match Json.member "ph" ev with
        | Some (Json.Str "B") ->
            Hashtbl.replace stacks tid (ev :: open_bs);
            true
        | Some (Json.Str "E") -> (
            match open_bs with
            | [] -> false
            | _ :: rest ->
                Hashtbl.replace stacks tid rest;
                true)
        | _ -> true)
      events
  in
  let close b =
    let e = with_field "ph" (Json.Str "E") b in
    match last_ts with Some t -> with_field "ts" (Json.Float t) e | None -> e
  in
  kept @ Hashtbl.fold (fun _ open_bs acc -> List.map close open_bs @ acc) stacks []

let merge inputs =
  let rows =
    List.mapi
      (fun i (label, events) ->
        let pid = i + 1 in
        process_name ~pid label
        :: List.map
             (with_field "pid" (Json.Int pid))
             (balance (List.filter (fun e -> not (is_process_name e)) events)))
      inputs
  in
  Json.Obj
    [
      ("traceEvents", Json.List (List.concat rows));
      ("displayTimeUnit", Json.Str "ms");
    ]

let write path inputs =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string (merge inputs));
      output_char oc '\n')
