module Fault_kind = Ffault_fault.Fault_kind
module Consensus = Ffault_consensus
module Persistence = Ffault_recover.Persistence
module Check = Ffault_verify.Consensus_check

type t = {
  name : string;
  protocol : string;
  f_values : int list;
  t_values : int option list;
  n_values : int list;
  kinds : Fault_kind.t list;
  rates : float list;
  crashes : int list;
  crash_rates : float list;
  persistence : Persistence.mode list;
  crash_seed : int64;
  trials : int;
  seed : int64;
}

let default_crashes = [ 0 ]
let default_crash_rates = [ 0.0 ]
let default_persistence = [ Persistence.Persist_all ]
let default_crash_seed = 0L

let has_crash_axes spec =
  spec.crashes <> default_crashes
  || spec.crash_rates <> default_crash_rates
  || not (List.equal Persistence.equal spec.persistence default_persistence)

(* ---- protocol resolution (shared with bin/main.ml) ---- *)

let resolve_protocol name =
  match String.lowercase_ascii name with
  | "fig1" -> Ok Consensus.Single_cas.two_process
  | "fig2" -> Ok Consensus.F_tolerant.protocol
  | "fig3" -> Ok Consensus.Bounded_faults.protocol
  | "herlihy" -> Ok Consensus.Single_cas.herlihy
  | "silent-retry" -> Ok Consensus.Silent_retry.protocol
  | "tas" -> Ok Consensus.Tas_consensus.protocol
  | "rec-cas" -> Ok Consensus.Recoverable.rec_cas
  | "rec-tas" -> Ok Consensus.Recoverable.rec_tas
  | "naive-tas" -> Ok Consensus.Recoverable.naive_tas
  | s when String.length s > 5 && String.sub s 0 5 = "sweep" -> (
      match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
      | Some m when m >= 1 -> Ok (Consensus.F_tolerant.with_objects m)
      | Some _ | None -> Error (Fmt.str "bad sweep object count in %S" s))
  | _ -> Error (Fmt.str "unknown protocol %S" name)

(* ---- validation ---- *)

let name_ok s =
  s <> ""
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true | _ -> false)
       s

(* The first (f, t, n) the spec sweeps that the protocol cannot be
   built at, with the reason. Instantiates each cell's setup; runs no
   trial. *)
let unbuildable_cell protocol spec =
  List.find_map
    (fun f ->
      List.find_map
        (fun t ->
          List.find_map
            (fun n ->
              match Check.setup protocol (Consensus.Protocol.params ?t ~n_procs:n ~f ()) with
              | _ -> None
              | exception Invalid_argument m -> Some (f, t, n, m))
            spec.n_values)
        spec.t_values)
    spec.f_values

(* NaN too: it fails every comparison, so [r < 0.0 || r > 1.0] let it
   through into manifests and journal lines that no reader parses. *)
let out_of_unit r = not (r >= 0.0 && r <= 1.0)

let validate spec =
  let err fmt = Fmt.kstr (fun m -> Error m) fmt in
  if not (name_ok spec.name) then
    err "campaign name %S must be non-empty [A-Za-z0-9_.-]" spec.name
  else
    match resolve_protocol spec.protocol with
    | Error m -> Error m
    | Ok protocol ->
        if spec.f_values = [] then err "empty f list"
        else if List.exists (fun f -> f < 0) spec.f_values then err "f values must be >= 0"
        else if spec.t_values = [] then err "empty t list"
        else if
          List.exists (function Some t -> t < 1 | None -> false) spec.t_values
        then err "bounded t values must be >= 1"
        else if spec.n_values = [] then err "empty n list"
        else if List.exists (fun n -> n < 1) spec.n_values then err "n values must be >= 1"
        else if List.is_empty spec.kinds then err "empty fault-kind list"
        else if spec.rates = [] then err "empty rate list"
        else if List.exists out_of_unit spec.rates then err "rates must lie in [0, 1]"
        else if spec.crashes = [] then err "empty crashes list"
        else if List.exists (fun c -> c < 0) spec.crashes then err "crashes must be >= 0"
        else if spec.crash_rates = [] then err "empty crash-rate list"
        else if List.exists out_of_unit spec.crash_rates then
          err "crash rates must lie in [0, 1]"
        else if spec.persistence = [] then err "empty persistence list"
        else if spec.trials < 1 then err "trials must be >= 1"
        else
          match unbuildable_cell protocol spec with
          | Some (f, t, n, m) ->
              err "%s cannot run at f=%d, t=%s, n=%d: %s" spec.protocol f
                (match t with Some t -> string_of_int t | None -> "unbounded")
                n m
          | None -> Ok spec

let v ?(name = "campaign") ~protocol ?(f = [ 1 ]) ?(t = [ None ]) ?(n = [ 3 ])
    ?(kinds = [ Fault_kind.Overriding ]) ?(rates = [ 0.5 ]) ?(crashes = default_crashes)
    ?(crash_rates = default_crash_rates) ?(persistence = default_persistence)
    ?(crash_seed = default_crash_seed) ~trials ?(seed = 0xCA3AL) () =
  match
    validate
      { name; protocol; f_values = f; t_values = t; n_values = n; kinds; rates; crashes;
        crash_rates; persistence; crash_seed; trials; seed }
  with
  | Ok s -> s
  | Error m -> invalid_arg ("Spec.v: " ^ m)

(* ---- axis-list parsing (also used by the CLI flags) ---- *)

let parse_items s = String.split_on_char ',' s |> List.map String.trim |> List.filter (( <> ) "")

let ints_of_string s =
  let item it =
    match String.index_opt it '.' with
    | Some i when i + 1 < String.length it && it.[i + 1] = '.' -> (
        let lo = String.sub it 0 i and hi = String.sub it (i + 2) (String.length it - i - 2) in
        match (int_of_string_opt lo, int_of_string_opt hi) with
        | Some lo, Some hi when lo <= hi -> Ok (List.init (hi - lo + 1) (fun k -> lo + k))
        | _ -> Error (Fmt.str "bad range %S" it))
    | _ -> (
        match int_of_string_opt it with
        | Some v -> Ok [ v ]
        | None -> Error (Fmt.str "bad integer %S" it))
  in
  List.fold_left
    (fun acc it ->
      match (acc, item it) with
      | Ok vs, Ok more -> Ok (vs @ more)
      | (Error _ as e), _ | _, (Error _ as e) -> e)
    (Ok []) (parse_items s)

let t_values_of_string s =
  List.fold_left
    (fun acc it ->
      match acc with
      | Error _ as e -> e
      | Ok vs -> (
          match String.lowercase_ascii it with
          | "unbounded" | "inf" | "none" | "-" -> Ok (vs @ [ None ])
          | _ -> (
              match ints_of_string it with
              | Ok more -> Ok (vs @ List.map Option.some more)
              | Error m -> Error m)))
    (Ok []) (parse_items s)

let kinds_of_string s =
  List.fold_left
    (fun acc it ->
      match acc with
      | Error _ as e -> e
      | Ok ks -> (
          match Fault_kind.of_string (String.lowercase_ascii it) with
          | Some k -> Ok (ks @ [ k ])
          | None -> Error (Fmt.str "unknown fault kind %S" it)))
    (Ok []) (parse_items s)

let rates_of_string s =
  List.fold_left
    (fun acc it ->
      match acc with
      | Error _ as e -> e
      | Ok rs -> (
          match float_of_string_opt it with
          | Some r -> Ok (rs @ [ r ])
          | None -> Error (Fmt.str "bad rate %S" it)))
    (Ok []) (parse_items s)

let persistence_of_string s =
  List.fold_left
    (fun acc it ->
      match acc with
      | Error _ as e -> e
      | Ok ms -> (
          match Persistence.of_string (String.lowercase_ascii it) with
          | Ok m -> Ok (ms @ [ m ])
          | Error m -> Error m))
    (Ok []) (parse_items s)

(* ---- the declarative text format ---- *)

let parse text =
  let ( let* ) = Result.bind in
  let lines = String.split_on_char '\n' text in
  let* fields =
    List.fold_left
      (fun acc (lineno, line) ->
        let* fields = acc in
        let line =
          match String.index_opt line '#' with
          | Some i -> String.sub line 0 i
          | None -> line
        in
        let line = String.trim line in
        if line = "" then Ok fields
        else
          match String.index_opt line '=' with
          | None -> Error (Fmt.str "line %d: expected `key = value'" lineno)
          | Some i ->
              let key = String.trim (String.sub line 0 i) in
              let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
              Ok ((key, value) :: fields))
      (Ok [])
      (List.mapi (fun i l -> (i + 1, l)) lines)
  in
  let find key = List.assoc_opt key fields in
  let with_default key default parse_fn =
    match find key with None -> Ok default | Some v -> parse_fn v
  in
  let* name = with_default "name" "campaign" (fun s -> Ok s) in
  let* protocol =
    match find "protocol" with
    | Some p -> Ok p
    | None -> Error "missing required key `protocol'"
  in
  let* f_values = with_default "f" [ 1 ] ints_of_string in
  let* t_values = with_default "t" [ None ] t_values_of_string in
  let* n_values = with_default "n" [ 3 ] ints_of_string in
  let* kinds = with_default "kinds" [ Fault_kind.Overriding ] kinds_of_string in
  let* rates = with_default "rates" [ 0.5 ] rates_of_string in
  let* crashes = with_default "crashes" default_crashes ints_of_string in
  let* crash_rates = with_default "crash-rates" default_crash_rates rates_of_string in
  let* persistence = with_default "persistence" default_persistence persistence_of_string in
  let* crash_seed =
    with_default "crash-seed" default_crash_seed (fun s ->
        match Int64.of_string_opt s with
        | Some v -> Ok v
        | None -> Error (Fmt.str "bad crash-seed %S" s))
  in
  let* trials =
    with_default "trials" 100 (fun s ->
        match int_of_string_opt s with Some v -> Ok v | None -> Error (Fmt.str "bad trials %S" s))
  in
  let* seed =
    with_default "seed" 0xCA3AL (fun s ->
        match Int64.of_string_opt s with Some v -> Ok v | None -> Error (Fmt.str "bad seed %S" s))
  in
  let* () =
    match
      List.find_opt
        (fun (k, _) ->
          not
            (List.mem k
               [ "name"; "protocol"; "f"; "t"; "n"; "kinds"; "rates"; "crashes"; "crash-rates";
                 "persistence"; "crash-seed"; "trials"; "seed" ]))
        fields
    with
    | Some (k, _) -> Error (Fmt.str "unknown key %S" k)
    | None -> Ok ()
  in
  validate
    { name; protocol; f_values; t_values; n_values; kinds; rates; crashes; crash_rates;
      persistence; crash_seed; trials; seed }

let of_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error m -> Error m

(* ---- JSON (manifest) ---- *)

let to_json spec =
  Json.Obj
    [
      ("name", Json.Str spec.name);
      ("protocol", Json.Str spec.protocol);
      ("f", Json.List (List.map (fun f -> Json.Int f) spec.f_values));
      ( "t",
        Json.List
          (List.map (function Some t -> Json.Int t | None -> Json.Null) spec.t_values) );
      ("n", Json.List (List.map (fun n -> Json.Int n) spec.n_values));
      ("kinds", Json.List (List.map (fun k -> Json.Str (Fault_kind.to_string k)) spec.kinds));
      ("rates", Json.List (List.map (fun r -> Json.Float r) spec.rates));
      ("crashes", Json.List (List.map (fun c -> Json.Int c) spec.crashes));
      ("crash_rates", Json.List (List.map (fun r -> Json.Float r) spec.crash_rates));
      ( "persistence",
        Json.List (List.map (fun m -> Json.Str (Persistence.to_string m)) spec.persistence) );
      ("crash_seed", Json.Str (Int64.to_string spec.crash_seed));
      ("trials", Json.Int spec.trials);
      ("seed", Json.Str (Int64.to_string spec.seed));
    ]

let of_json json =
  let ( let* ) = Result.bind in
  let field key project =
    match Option.bind (Json.member key json) project with
    | Some v -> Ok v
    | None -> Error (Fmt.str "manifest: missing or malformed %S" key)
  in
  let int_list key =
    field key (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs = List.filter_map Json.get_int items in
            if List.length vs = List.length items then Some vs else None))
  in
  let* name = field "name" Json.get_str in
  let* protocol = field "protocol" Json.get_str in
  let* f_values = int_list "f" in
  let* t_values =
    field "t" (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs =
              List.filter_map
                (function Json.Null -> Some None | j -> Option.map Option.some (Json.get_int j))
                items
            in
            if List.length vs = List.length items then Some vs else None))
  in
  let* n_values = int_list "n" in
  let* kinds =
    field "kinds" (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs = List.filter_map (fun j -> Option.bind (Json.get_str j) Fault_kind.of_string) items in
            if List.length vs = List.length items then Some vs else None))
  in
  let* rates =
    field "rates" (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs = List.filter_map Json.get_float items in
            if List.length vs = List.length items then Some vs else None))
  in
  (* Crash axes default when absent: manifests written before the crash
     dimension existed keep parsing (and keep their trial-id assignment —
     the axes are the innermost grid loops). *)
  let opt_field key default project =
    match Json.member key json with
    | None -> Ok default
    | Some j -> (
        match project j with
        | Some v -> Ok v
        | None -> Error (Fmt.str "manifest: malformed %S" key))
  in
  let* crashes =
    opt_field "crashes" default_crashes (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs = List.filter_map Json.get_int items in
            if List.length vs = List.length items then Some vs else None))
  in
  let* crash_rates =
    opt_field "crash_rates" default_crash_rates (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs = List.filter_map Json.get_float items in
            if List.length vs = List.length items then Some vs else None))
  in
  let* persistence =
    opt_field "persistence" default_persistence (fun j ->
        Option.bind (Json.get_list j) (fun items ->
            let vs =
              List.filter_map
                (fun j -> Option.bind (Json.get_str j) (fun s -> Result.to_option (Persistence.of_string s)))
                items
            in
            if List.length vs = List.length items then Some vs else None))
  in
  let* crash_seed =
    opt_field "crash_seed" default_crash_seed (fun j ->
        Option.bind (Json.get_str j) Int64.of_string_opt)
  in
  let* trials = field "trials" Json.get_int in
  let* seed = field "seed" (fun j -> Option.bind (Json.get_str j) Int64.of_string_opt) in
  validate
    { name; protocol; f_values; t_values; n_values; kinds; rates; crashes; crash_rates;
      persistence; crash_seed; trials; seed }

let equal a b = to_json a = to_json b

let pp ppf spec =
  let pp_t ppf = function Some t -> Fmt.int ppf t | None -> Fmt.string ppf "∞" in
  Fmt.pf ppf
    "@[<h>campaign %s: %s, f ∈ {%a}, t ∈ {%a}, n ∈ {%a}, kinds {%a}, rates {%a}, %d \
     trials/cell, seed %Ld@]"
    spec.name spec.protocol
    (Fmt.list ~sep:Fmt.comma Fmt.int)
    spec.f_values
    (Fmt.list ~sep:Fmt.comma pp_t)
    spec.t_values
    (Fmt.list ~sep:Fmt.comma Fmt.int)
    spec.n_values
    (Fmt.list ~sep:Fmt.comma Fault_kind.pp)
    spec.kinds
    (Fmt.list ~sep:Fmt.comma (Fmt.float_dfrac 2))
    spec.rates spec.trials spec.seed;
  if has_crash_axes spec then
    Fmt.pf ppf "@ (crashes {%a}, crash rates {%a}, persistence {%a}, crash seed %Ld)"
      (Fmt.list ~sep:Fmt.comma Fmt.int)
      spec.crashes
      (Fmt.list ~sep:Fmt.comma (Fmt.float_dfrac 2))
      spec.crash_rates
      (Fmt.list ~sep:Fmt.comma Persistence.pp)
      spec.persistence spec.crash_seed
