module Json = Ffault_campaign.Json
module Spec = Ffault_campaign.Spec
module Journal = Ffault_campaign.Journal
module Pool = Ffault_campaign.Pool

type supervision = Pool.supervision

let no_supervision = Pool.default_supervision

type msg =
  | Hello of { version : int; name : string; domains : int; last_epoch : int }
  | Welcome of {
      version : int;
      epoch : int;
      spec : Spec.t;
      supervision : supervision;
      hb_interval_s : float;
    }
  | Request
  | Lease of { lease : int; epoch : int; lo : int; hi : int; done_ids : int list }
  | Result of Journal.record
  | Complete of { lease : int; epoch : int }
  | Heartbeat of { snapshot : Json.t option; spans : Json.t option }
  | Wait of { seconds : float }
  | Bye of { reason : string }

(* The bare liveness beat — what pre-observability workers send, and
   what everything that only cares about liveness should construct. *)
let heartbeat = Heartbeat { snapshot = None; spans = None }

(* One tag byte per message kind. 'R' vs 'r': results are the hot
   frame, requests the idle one. *)
let tag_of = function
  | Hello _ -> 'h'
  | Welcome _ -> 'w'
  | Request -> 'r'
  | Lease _ -> 'l'
  | Result _ -> 'R'
  | Complete _ -> 'c'
  | Heartbeat _ -> 'b'
  | Wait _ -> 'z'
  | Bye _ -> 'y'

(* The wire carries the retry policy's [max_retries] alone: a worker
   rebuilds the rest of the policy from the defaults. *)
let supervision_to_json (s : supervision) =
  Json.Obj
    [
      ( "deadline_s",
        match s.Pool.deadline_s with Some d -> Json.Float d | None -> Json.Null );
      ("max_retries", Json.Int s.Pool.retry.Ffault_supervise.Retry.max_retries);
      ("quarantine_after", Json.Int s.Pool.quarantine_after);
      ("adaptive_deadline", Json.Bool s.Pool.adaptive_deadline);
    ]

(* Absent fields take the defaults; values the Pool builder rejects are
   a decode error, never an exception in the worker. *)
let supervision_of_json j =
  let get name get = Option.bind (Json.member name j) get in
  match
    Pool.supervision
      ?deadline_s:(get "deadline_s" Json.get_float)
      ?max_retries:(get "max_retries" Json.get_int)
      ?quarantine_after:(get "quarantine_after" Json.get_int)
      ?adaptive_deadline:(get "adaptive_deadline" Json.get_bool)
      ()
  with
  | s -> Ok s
  | exception Invalid_argument m -> Error ("codec: " ^ m)

(* A [Result]'s payload is its journal line, printed by the journal's
   own record printer; every other payload is a small JSON object. *)
let payload_of msg =
  let obj fields = Json.to_string (Json.Obj fields) in
  match msg with
  | Hello { version; name; domains; last_epoch } ->
      obj
        [
          ("version", Json.Int version);
          ("name", Json.Str name);
          ("domains", Json.Int domains);
          ("last_epoch", Json.Int last_epoch);
        ]
  | Welcome { version; epoch; spec; supervision; hb_interval_s } ->
      obj
        [
          ("version", Json.Int version);
          ("epoch", Json.Int epoch);
          ("spec", Spec.to_json spec);
          ("supervision", supervision_to_json supervision);
          ("hb_interval_s", Json.Float hb_interval_s);
        ]
  | Request -> obj []
  | Heartbeat { snapshot; spans } ->
      (* both fields optional: a bare beat encodes as the legacy "{}",
         so old decoders never see an unknown shape *)
      obj
        ((match snapshot with Some s -> [ ("snapshot", s) ] | None -> [])
        @ match spans with Some s -> [ ("spans", s) ] | None -> [])
  | Lease { lease; epoch; lo; hi; done_ids } ->
      obj
        [
          ("lease", Json.Int lease);
          ("epoch", Json.Int epoch);
          ("lo", Json.Int lo);
          ("hi", Json.Int hi);
          ("done", Json.List (List.map (fun i -> Json.Int i) done_ids));
        ]
  | Result r -> Journal.to_line r
  | Complete { lease; epoch } -> obj [ ("lease", Json.Int lease); ("epoch", Json.Int epoch) ]
  | Wait { seconds } -> obj [ ("seconds", Json.Float seconds) ]
  | Bye { reason } -> obj [ ("reason", Json.Str reason) ]

let to_frame msg = { Wire.tag = tag_of msg; payload = payload_of msg }

let ( let* ) = Result.bind

let field name get j =
  match Option.bind (Json.member name j) get with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "codec: missing or malformed %S" name)

(* Epoch fields default to 0 when absent, so pre-failover frames keep
   decoding: 0 is "no incarnation" — a coordinator's epochs start at 1,
   and a 0 on the wire is simply always-stale (fenced, then repaired by
   the reconcile-at-request rule rather than trusted). *)
let epoch_field name j =
  match Option.bind (Json.member name j) Json.get_int with Some e -> e | None -> 0

let of_frame { Wire.tag; payload } =
  let* j = Json.of_string payload in
  match tag with
  | 'h' ->
      let* version = field "version" Json.get_int j in
      let* name = field "name" Json.get_str j in
      let* domains = field "domains" Json.get_int j in
      Ok (Hello { version; name; domains; last_epoch = epoch_field "last_epoch" j })
  | 'w' ->
      let* version = field "version" Json.get_int j in
      let* spec_json = field "spec" Option.some j in
      let* spec = Spec.of_json spec_json in
      let* sup_json = field "supervision" Option.some j in
      let* supervision = supervision_of_json sup_json in
      let* hb_interval_s = field "hb_interval_s" Json.get_float j in
      (* the rule Coordinator.config enforces: the worker's heartbeat
         thread sleeps this long between beats *)
      if (not (Float.is_finite hb_interval_s)) || hb_interval_s <= 0.0 then
        Error "codec: hb_interval_s must be finite and positive"
      else
        Ok
          (Welcome
             {
               version;
               epoch = epoch_field "epoch" j;
               spec;
               supervision;
               hb_interval_s;
             })
  | 'r' -> Ok Request
  | 'l' ->
      let* lease = field "lease" Json.get_int j in
      let* lo = field "lo" Json.get_int j in
      let* hi = field "hi" Json.get_int j in
      let* done_list = field "done" Json.get_list j in
      let done_ids = List.filter_map Json.get_int done_list in
      if List.length done_ids <> List.length done_list then
        Error "codec: non-integer trial id in done list"
      else Ok (Lease { lease; epoch = epoch_field "epoch" j; lo; hi; done_ids })
  | 'R' ->
      let* r = Journal.of_json j in
      Ok (Result r)
  | 'c' ->
      let* lease = field "lease" Json.get_int j in
      Ok (Complete { lease; epoch = epoch_field "epoch" j })
  | 'b' ->
      (* legacy beats carry "{}"; new ones may piggyback a telemetry
         snapshot and a span batch — both optional either way *)
      Ok (Heartbeat { snapshot = Json.member "snapshot" j; spans = Json.member "spans" j })
  | 'z' ->
      let* seconds = field "seconds" Json.get_float j in
      (* the worker waits this long on its socket: "1e999" would park it
         forever *)
      if (not (Float.is_finite seconds)) || seconds < 0.0 then
        Error "codec: wait seconds must be finite and non-negative"
      else Ok (Wait { seconds })
  | 'y' ->
      let* reason = field "reason" Json.get_str j in
      Ok (Bye { reason })
  | c -> Error (Printf.sprintf "codec: unknown message tag %C" c)

let pp ppf = function
  | Hello { version; name; domains; last_epoch } ->
      Fmt.pf ppf "hello v%d %s (%d domains)%s" version name domains
        (if last_epoch > 0 then Fmt.str " last epoch %d" last_epoch else "")
  | Welcome { version; epoch; hb_interval_s; _ } ->
      Fmt.pf ppf "welcome v%d epoch %d (heartbeat every %gs)" version epoch hb_interval_s
  | Request -> Fmt.string ppf "request"
  | Lease { lease; epoch; lo; hi; done_ids } ->
      Fmt.pf ppf "lease #%d@%d [%d,%d) (%d already done)" lease epoch lo hi
        (List.length done_ids)
  | Result r -> Fmt.pf ppf "result trial %d" r.Journal.trial
  | Complete { lease; epoch } -> Fmt.pf ppf "complete #%d@%d" lease epoch
  | Heartbeat { snapshot; spans } ->
      Fmt.pf ppf "heartbeat%s%s"
        (if snapshot <> None then "+telemetry" else "")
        (if spans <> None then "+spans" else "")
  | Wait { seconds } -> Fmt.pf ppf "wait %gs" seconds
  | Bye { reason } -> Fmt.pf ppf "bye (%s)" reason
