(* Per-directory policy: where each rule is active, and which
   directories or files are allowlisted out of it (with a recorded
   justification, so the carve-out is auditable). *)

type allow = { prefix : string; rules : string list; why : string }

type t = {
  active : (string * string list) list;  (* rule -> path prefixes where it applies *)
  allows : allow list;
}

(* ---- path handling ---- *)

let top_level_dirs = [ "lib"; "bin"; "test"; "bench"; "examples"; "doc" ]

(* Normalize a path to be repo-relative: split on '/', drop leading "."
   segments, and if some ancestor directory carries the repo in a
   temp/abs path (e.g. /tmp/x/lib/sim/a.ml), start at the first segment
   that names a known top-level dir. Keeps `ffault lint /abs/repo/lib`
   and test fixtures under temp roots scoped correctly. *)
let normalize path =
  let segs = String.split_on_char '/' path |> List.filter (fun s -> s <> "" && s <> ".") in
  let rec from = function
    | [] -> segs
    | s :: _ as rest when List.mem s top_level_dirs -> rest
    | _ :: tl -> from tl
  in
  String.concat "/" (from segs)

let has_prefix ~prefix path =
  let path = normalize path and prefix = normalize prefix in
  path = prefix
  || String.length path > String.length prefix
     && String.sub path 0 (String.length prefix) = prefix
     && path.[String.length prefix] = '/'

(* ---- queries ---- *)

let in_scope t ~rule ~file =
  if Rule.is_meta rule then true
  else
    match List.assoc_opt rule t.active with
    | None -> false (* unknown rule: active nowhere *)
    | Some prefixes -> List.exists (fun p -> has_prefix ~prefix:p file) prefixes

let allow_reason t ~rule ~file =
  if Rule.is_meta rule then None
  else
    List.find_map
      (fun a ->
        if List.mem rule a.rules && has_prefix ~prefix:a.prefix file then Some a.why
        else None)
      t.allows

let applies t ~rule ~file =
  in_scope t ~rule ~file && allow_reason t ~rule ~file = None

(* ---- the repo's default policy ---- *)

(* The dirs whose behavior must be a pure function of the seed: the
   simulator, the protocols under test, the checkers over them, and the
   network simulation (whose whole contract is determinism). *)
let deterministic_dirs =
  [ "lib/sim"; "lib/consensus"; "lib/verify"; "lib/impossibility"; "lib/netsim" ]

let pure_lib_dirs =
  deterministic_dirs
  @ [
      "lib/objects"; "lib/hoare"; "lib/fault"; "lib/prng"; "lib/stats";
      "lib/experiments"; "lib/campaign"; "lib/lint";
    ]

let default =
  {
    active =
      [
        ("raw-atomic", [ "lib" ]);
        ("nondeterminism", deterministic_dirs);
        ("toplevel-mutable", pure_lib_dirs);
        ("io-in-lib", [ "lib" ]);
        ("catch-all", [ "lib" ]);
        ("mli-required", [ "lib" ]);
        ("obj-magic", [ "lib" ]);
        ("effect-discipline", [ "lib/sim" ]);
        ("poly-compare-abstract", [ "lib" ]);
        ("domain-unsafe-capture", [ "lib" ]);
      ];
    allows =
      [
        {
          prefix = "lib/runtime";
          rules = [ "raw-atomic" ];
          why =
            "the faulty-CAS substrate itself: Faulty_cas wraps the raw primitive, \
             Runner's work-stealing cursor is infrastructure, not protocol state";
        };
        {
          prefix = "lib/telemetry";
          rules = [ "raw-atomic"; "io-in-lib"; "toplevel-mutable" ];
          why =
            "the designated observability layer: allocation-free sharded counters \
             (atomics by design), a process-wide metric registry, and the progress \
             line that owns the terminal";
        };
        {
          prefix = "lib/supervise/quarantine.ml";
          rules = [ "raw-atomic" ];
          why =
            "audited: per-cell strike counters shared by the pool's domains are \
             cross-domain infrastructure, never part of a simulated execution";
        };
        {
          prefix = "lib/dist/worker.ml";
          rules = [ "raw-atomic" ];
          why =
            "audited: the heartbeat thread's stop flag is cross-thread control \
             state of the transport layer; trials themselves only touch CAS \
             through Faulty_cas";
        };
        {
          prefix = "lib/dist/transport.ml";
          rules = [ "io-in-lib" ];
          why =
            "the socket driver itself: framing over Unix fds is this module's whole \
             job; everything above it exchanges Codec.msg values";
        };
        {
          prefix = "lib/dist/http.ml";
          rules = [ "io-in-lib" ];
          why =
            "the status endpoint's socket shim: accept/read/write confined to the \
             dist driver layer; all response-building stays in the pure Dist.Status, \
             which is golden-tested under netsim and must remain lint-clean";
        };
        {
          prefix = "lib/dist/coordinator.ml";
          rules = [ "io-in-lib" ];
          why =
            "the blocking driver's select loop multiplexes transport and status \
             sockets; protocol decisions stay in the pure Dist.Core";
        };
        {
          prefix = "lib/campaign/live.ml";
          rules = [ "raw-atomic" ];
          why =
            "audited: cross-domain progress tallies read by the reporter thread; \
             never part of a simulated execution";
        };
      ];
  }
