module Wire = Ffault_dist.Wire
module Codec = Ffault_dist.Codec

type handler = {
  h_frames : Wire.frame list -> unit;
  h_closed : unit -> unit;
  h_error : string -> unit;
}

type state = Open | Dead | Closed

type conn = {
  e_worker : int;
  e_link : int; (* link id of frames sent FROM this endpoint *)
  e_name : string; (* what the peer sees as our address *)
  mutable e_state : state;
  mutable e_handler : handler option;
  e_dec : Wire.Decoder.t;
  mutable e_poisoned : bool;
  mutable e_peer : conn option; (* tied after pairing, then immutable *)
  net : t;
}

and t = {
  sched : Sched.t;
  plan : Fault_plan.t;
  trace : (string -> unit) option; (* [None]: nothing is formatted *)
  n_workers : int;
  mutable listener : (conn -> unit) option;
  k : int array; (* per-link frame counter, survives reconnections *)
  last_arrival : int array; (* per-link FIFO clamp *)
  partitioned : bool array;
  mutable endpoints : conn list; (* every endpoint ever created *)
}

let create ~sched ~plan ?trace ~workers () =
  {
    sched;
    plan;
    trace;
    n_workers = workers;
    listener = None;
    k = Array.make (2 * workers) 0;
    last_arrival = Array.make (2 * workers) 0;
    partitioned = Array.make workers false;
    endpoints = [];
  }

let set_listener t l = t.listener <- l

(* Untraced, a line's arguments are skipped unread: a link's name goes
   through [%a], so it is not even built. *)
let tr t fmt =
  match t.trace with
  | None -> Printf.ifprintf () fmt
  | Some trace ->
      let ms = float_of_int (Sched.now_ns t.sched) /. 1e6 in
      Printf.ksprintf (fun s -> trace (Printf.sprintf "%10.3fms net: %s" ms s)) fmt

let link_name () link =
  if link land 1 = 0 then Printf.sprintf "w%d->c" (link / 2)
  else Printf.sprintf "c->w%d" (link / 2)

let peer e = match e.e_peer with Some p -> p.e_name | None -> "sim://unpaired"

let set_handler e h = e.e_handler <- Some h

(* Deliver [bytes] at [dst]: feed the real decoder, hand complete frames
   to the handler. A torn stream poisons the endpoint — exactly one
   [h_error], like the socket reader. *)
let deliver_bytes dst bytes =
  if dst.e_state = Open && not dst.e_poisoned then begin
    Wire.Decoder.feed dst.e_dec bytes;
    let rec drain acc =
      match Wire.Decoder.next dst.e_dec with
      | Ok (Some f) -> drain (f :: acc)
      | Ok None -> Ok (List.rev acc)
      | Error e -> Error (List.rev acc, e)
    in
    match drain [] with
    | Ok frames -> (
        match (frames, dst.e_handler) with
        | [], _ | _, None -> ()
        | frames, Some h -> h.h_frames frames)
    | Error (frames, err) ->
        dst.e_poisoned <- true;
        (match (frames, dst.e_handler) with
        | [], _ | _, None -> ()
        | frames, Some h -> h.h_frames frames);
        (match dst.e_handler with None -> () | Some h -> h.h_error err)
  end

let schedule_delivery t ~dst ~at_ns bytes =
  Sched.at t.sched ~ns:at_ns (fun () -> deliver_bytes dst bytes)

(* The send path: partition check, then the schedule decides this
   frame's fate. FIFO is enforced by clamping each arrival past the
   link's previous one; [Reorder] skips the clamp (and leaves the
   high-water mark alone) so later frames overtake it. *)
let send_bytes src bytes =
  let t = src.net in
  match src.e_peer with
  | None -> ()
  | Some dst ->
      if t.partitioned.(src.e_worker) then
        tr t "partition eats frame on %a" link_name src.e_link
      else begin
        let link = src.e_link in
        let k = t.k.(link) in
        t.k.(link) <- k + 1;
        let base = Sched.now_ns t.sched + Fault_plan.latency_ns t.plan ~link in
        let clamp ns =
          let ns = max ns (t.last_arrival.(link) + 1) in
          t.last_arrival.(link) <- ns;
          ns
        in
        match Fault_plan.frame_fault t.plan ~link ~k with
        | Some Fault_plan.Drop -> tr t "drop %a #%d" link_name link k
        | Some Fault_plan.Dup ->
            tr t "dup %a #%d" link_name link k;
            schedule_delivery t ~dst ~at_ns:(clamp base) bytes;
            schedule_delivery t ~dst ~at_ns:(clamp base) bytes
        | Some (Fault_plan.Delay extra) ->
            tr t "delay %a #%d +%dus" link_name link k (extra / 1_000);
            schedule_delivery t ~dst ~at_ns:(clamp (base + extra)) bytes
        | Some (Fault_plan.Reorder extra) ->
            tr t "reorder %a #%d +%dus" link_name link k (extra / 1_000);
            schedule_delivery t ~dst ~at_ns:(base + extra) bytes
        | None -> schedule_delivery t ~dst ~at_ns:(clamp base) bytes
      end

let send e msg =
  match e.e_state with
  | Closed -> Error "connection closed"
  | Dead | Open ->
      (* a crashed ([Dead]) endpoint belongs to a crashed worker whose
         actor is gone; tolerate stragglers by swallowing them *)
      if e.e_state = Open then send_bytes e (Wire.encode (Codec.to_frame msg));
      Ok ()

let send_raw e bytes = if e.e_state = Open then send_bytes e bytes

let close e =
  match e.e_state with
  | Closed | Dead -> ()
  | Open -> (
      e.e_state <- Closed;
      match e.e_peer with
      | None -> ()
      | Some p ->
          let t = e.net in
          let at_ns = Sched.now_ns t.sched + Fault_plan.latency_ns t.plan ~link:e.e_link in
          Sched.at t.sched ~ns:at_ns (fun () ->
              if p.e_state = Open then
                match p.e_handler with None -> () | Some h -> h.h_closed ()))

let connect t ~worker =
  if worker < 0 || worker >= t.n_workers then invalid_arg "Net.connect: bad worker index";
  match t.listener with
  | None -> Error "connection refused"
  | Some accept ->
      let mk ~link ~name =
        {
          e_worker = worker;
          e_link = link;
          e_name = name;
          e_state = Open;
          e_handler = None;
          e_dec = Wire.Decoder.create ();
          e_poisoned = false;
          e_peer = None;
          net = t;
        }
      in
      let wside = mk ~link:(2 * worker) ~name:(Printf.sprintf "sim://w%d" worker) in
      let cside = mk ~link:((2 * worker) + 1) ~name:"sim://coordinator" in
      wside.e_peer <- Some cside;
      cside.e_peer <- Some wside;
      t.endpoints <- wside :: cside :: t.endpoints;
      tr t "connect w%d" worker;
      accept cside;
      Ok wside

(* Only the worker-side endpoints die (even links): bytes already in
   flight toward the coordinator still arrive, like a real crash. The
   coordinator's side stays [Open] and silent — no EOF. *)
let crash_worker t ~worker =
  tr t "crash w%d" worker;
  List.iter
    (fun e ->
      if e.e_worker = worker && e.e_link land 1 = 0 && e.e_state = Open then e.e_state <- Dead)
    t.endpoints

(* The mirror image of [crash_worker]: the coordinator-side endpoints
   (odd links) die and the listener goes away, so worker frames black-
   hole and fresh connects are refused until the restarted incarnation
   installs a new listener. Worker sides stay [Open] and silent — the
   workers must notice by reply silence, exactly like a real SIGKILL'd
   coordinator whose host keeps the port unreachable. *)
let crash_coordinator t =
  tr t "crash coordinator";
  t.listener <- None;
  List.iter
    (fun e -> if e.e_link land 1 = 1 && e.e_state = Open then e.e_state <- Dead)
    t.endpoints

let set_partitioned t ~worker v =
  if t.partitioned.(worker) <> v then begin
    tr t "%s w%d" (if v then "partition" else "heal") worker;
    t.partitioned.(worker) <- v
  end
