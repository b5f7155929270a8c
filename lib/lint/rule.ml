type layer = Ast | Typed | Fs

let layer_to_string = function Ast -> "ast" | Typed -> "typed" | Fs -> "fs"

type t = {
  name : string;
  severity : Finding.severity;
  summary : string;
  layer : layer;
  rationale : string;
  example : string;
}

let v ?(layer = Ast) ~rationale ~example name severity summary =
  { name; severity; summary; layer; rationale; example }

(* The substantive rules, in the order they are documented. Each lives
   in exactly one pass, its [layer]. The [rationale] and [example]
   fields feed `ffault lint --explain RULE`; the summary feeds
   `--list-rules`. *)
let substantive =
  [
    v "raw-atomic" Finding.Error ~layer:Typed
      "raw Atomic CAS/exchange/set outside the faulty-CAS substrate silently disables \
       fault injection (the overriding fault of \xc2\xa73.3), invalidating E1\xe2\x80\x93E8"
      ~rationale:
        "Every CAS executed by protocol code must flow through \
         Ffault_runtime.Faulty_cas, because that wrapper is where the fault \
         injector lives: an overriding fault replaces the value a successful CAS \
         installs, a silent fault lies about the outcome. A raw \
         Atomic.compare_and_set (or exchange/set/fetch_and_add/incr/decr) \
         executes against the real primitive, so the experiment verifies a \
         protocol against a fault model it never actually faces. Reads \
         (Atomic.get) and allocation (Atomic.make) carry no fault semantics and \
         are fine. The typed pass matches the resolved identity, so module A = \
         Atomic, open Atomic or an eta-reduced A.set are caught the same way."
      ~example:
        "lib/consensus/protocol.ml:42:10: error raw-atomic: raw Atomic.set \
         bypasses the injectable faulty-CAS substrate; route the operation \
         through Ffault_runtime.Faulty_cas";
    v "nondeterminism" Finding.Error ~layer:Typed
      "wall clocks, Random and randomized hashing under the simulator break seeded \
       reproducibility, journal replay and campaign resume"
      ~rationale:
        "Everything under the simulator must be a pure function of the seed: \
         journal replay, campaign resume and the shrinker all re-execute trials \
         and require bit-identical outcomes. Wall-clock reads (Sys.time, \
         Unix.gettimeofday), the global Random state and randomized hashing \
         (Hashtbl.create ~random:true, Hashtbl.randomize) all vary across runs. \
         Active in lib/sim, lib/consensus, lib/verify, lib/impossibility and \
         lib/netsim. Seeded randomness comes from Ffault_prng, split per trial."
      ~example:
        "lib/sim/scheduler.ml:17:8: error nondeterminism: Random.int draws from \
         the global, seed-unstable PRNG; deterministic code must use Ffault_prng \
         (splittable, seeded per trial)";
    v "toplevel-mutable" Finding.Error
      "module-level mutable state in deterministic libraries leaks between campaign \
       trials that share a process"
      ~rationale:
        "A module-level ref/Hashtbl/Buffer/array is allocated once per process \
         and shared by every trial the process runs, so trial N's state leaks \
         into trial N+1 and outcomes depend on execution order — exactly what \
         the domain-count invariance of the pool forbids. Allocate per run and \
         pass it in; allocation inside a function or under lazy is fine."
      ~example:
        "lib/verify/checker.ml:3:12: error toplevel-mutable: module-level \
         Hashtbl.create creates mutable state shared across every trial in the \
         process; allocate it per run (pass it in)";
    v "io-in-lib" Finding.Error ~layer:Typed
      "direct stdout/stderr printing or exit in library code bypasses the telemetry \
       and report layers and corrupts machine-read output"
      ~rationale:
        "Library code that prints to the terminal (print_*, Printf.printf, \
         Fmt.pr, ...) or calls exit competes with the progress line, corrupts \
         JSON emitted on stdout for CI, and makes outcomes unobservable to the \
         report layer. Socket-level Unix syscalls are the same discipline one \
         level down: transport work belongs in the allowlisted dist driver \
         modules (transport.ml, http.ml, coordinator.ml). Return data, print to a caller-supplied formatter, or go \
         through Ffault_telemetry."
      ~example:
        "lib/objects/vqueue.ml:88:2: error io-in-lib: print_endline performs \
         direct terminal IO/exit from library code; return data, or go through \
         Ffault_telemetry / the report layer";
    v "catch-all" Finding.Error
      "a wildcard exception handler can swallow fault-budget and cancellation \
       exceptions in pool/runner paths"
      ~rationale:
        "try ... with _ -> and match ... with exception _ -> swallow every \
         exception, including Budget.Exhausted and Cancel.Cancelled — the \
         control-flow exceptions the pool and runner use to stop work. A \
         swallowed cancellation turns a supervised timeout into a silent wrong \
         answer. Match the exceptions you mean to handle, or bind and re-raise \
         the rest."
      ~example:
        "lib/campaign/runner_glue.ml:61:29: error catch-all: wildcard exception \
         handler swallows every exception, including budget exhaustion and \
         cancellation; match the exceptions you mean to handle";
    v "mli-required" Finding.Error ~layer:Fs
      "every library module must commit to an interface: an .ml without its .mli \
       exposes internals the lint and the design cannot see"
      ~rationale:
        "An .ml without a committed .mli exposes every internal as public \
         surface: callers couple to representation details, and interface drift \
         is invisible in review. The check is filesystem-level — each lib/**.ml \
         must have a sibling .mli."
      ~example:
        "lib/stats/quantiles.ml:1:0: error mli-required: quantiles.ml has no \
         interface: add quantiles.mli so the module's surface is committed and \
         reviewable";
    v "obj-magic" Finding.Error ~layer:Typed
      "Obj.* defeats the type system; unsafe representation tricks need an explicit, \
       justified suppression"
      ~rationale:
        "Obj.magic and friends bypass the type system entirely; a wrong \
         assumption about representation is a memory-safety bug the compiler \
         can no longer catch. Sound tricks exist (the telemetry cache-padding \
         copy is one) but each must carry an in-source justified suppression so \
         the audit trail survives."
      ~example:
        "lib/telemetry/metrics.ml:30:14: error obj-magic: Obj.repr defeats the \
         type system; if the representation trick is sound, suppress with \
         [@@@ffault.lint.allow \"obj-magic\", \"why it is safe\"]";
    v "effect-discipline" Finding.Error
      "simulator effect handlers must run the full Step/Decide protocol: \
       Effect.Deep.try_with (no retc/exnc) lets a returning or raising process escape \
       the scheduler's status bookkeeping"
      ~rationale:
        "The simulator's scheduler tracks each process through its effect \
         handler: a Step effect yields, a return becomes Decided, a raise \
         becomes Crashed. Effect.Deep.try_with installs only an effect handler, \
         so a body that returns or raises unwinds straight through the \
         scheduler; a match_with whose exnc merely re-raises drops the crash \
         half. Every exit must land in the scheduler's status array."
      ~example:
        "lib/sim/engine.ml:102:4: error effect-discipline: Effect.Deep.try_with \
         installs only an effect handler: a body that returns or raises \
         bypasses the scheduler's Step/Decide bookkeeping";
    v "poly-compare-abstract" Finding.Error ~layer:Typed
      "structural =/compare/Hashtbl.hash/List.mem at a lib-owned semantic type \
       (Value.t, History.t, Op.t, ...) breaks the moment the type gains closures or \
       mutable internals"
      ~rationale:
        "Value.t, History.t, Op.t, Obj_id.t, Fault_kind.t, Spec.t and Packed.t \
         own their comparison semantics (Value.equal is the comparison the CAS \
         primitive runs). Polymorphic =, <>, compare, \
         Hashtbl.hash and List.mem compare representations instead: they raise \
         on closures, diverge from the semantic order on mutable internals, and \
         silently change meaning when the type grows a constructor. The typed \
         pass sees the instantiated type of each occurrence, so the check \
         survives aliases and type inference; it also descends into type \
         parameters (Value.t list = Value.t list is still structural). Use the \
         module's own equal/compare/hash."
      ~example:
        "lib/verify/oracle.ml:54:20: error poly-compare-abstract: polymorphic = \
         instantiated at Value.t; use Value.equal/compare instead of structural \
         comparison";
    v "domain-unsafe-capture" Finding.Warning ~layer:Typed
      "a ref, mutable field or non-atomic array allocated outside a Domain.spawn \
       closure and mutated inside it is a cross-domain data race (error in lib/sim)"
      ~rationale:
        "A closure passed to Domain.spawn runs on another domain: mutating a \
         captured ref, mutable record field or non-atomic array from inside it \
         is unsynchronized cross-domain shared-memory access — a data race \
         under the OCaml memory model, and in the multicore experiments a way \
         to corrupt measurements without any fault being injected. Use Atomic, \
         keep the state domain-local, or pass results back through Domain.join. \
         Heuristic: literal closures and closures passed by name are inspected, \
         and only mutations of identifiers bound outside the closure are flagged. A warning \
         elsewhere, an error under lib/sim (where nothing may share mutable \
         state with the simulated execution)."
      ~example:
        "lib/experiments/mc_sweep.ml:33:28: warning domain-unsafe-capture: ref \
         'hits' is allocated outside this Domain.spawn closure and mutated \
         inside it; use Atomic, per-domain state, or Domain.join";
  ]

(* Meta rules: produced by the machinery itself, not subject to policy
   scoping (a broken parse or suppression is a problem wherever it is). *)
let meta =
  [
    v "parse-error" Finding.Error "the file does not parse with the repo's compiler"
      ~rationale:
        "The lint parses every source with the repo's own compiler frontend; a \
         file that does not parse cannot be checked, which is itself a failure \
         (the build would fail too)."
      ~example:
        "lib/sim/broken.ml:3:8: error parse-error: syntax error";
    v "suppression" Finding.Error
      "malformed [@@@ffault.lint.allow] attribute (unknown rule or missing \
       justification)"
      ~rationale:
        "A suppression must name a known, suppressible rule and carry a \
         non-blank justification string — that is what makes the carve-out \
         auditable. A malformed one is reported and suppresses nothing."
      ~example:
        "lib/fault/injector.ml:1:0: error suppression: suppressing \
         \"raw-atomic\" requires a justification string";
    v "cmt-missing" Finding.Error ~layer:Typed
      "every .ml needs a fresh cmt for the typed pass; build first (dune build @check)"
      ~rationale:
        "The typed rules read the compiler's .cmt output. A .ml whose cmt is \
         missing, stale or unreadable cannot be checked by them, so it is this \
         error: a build-step regression cannot silently shrink lint coverage."
      ~example:
        "lib/netsim/net.ml:1:0: error cmt-missing: no cmt found under \
         _build/default (build first: dune build @check)";
  ]

let all = substantive @ meta
let find name = List.find_opt (fun r -> r.name = name) all
let is_meta name = List.exists (fun r -> r.name = name) meta
let names = List.map (fun r -> r.name) all

let severity name =
  match find name with Some r -> r.severity | None -> Finding.Error

let layer name = match find name with Some r -> r.layer | None -> Ast
