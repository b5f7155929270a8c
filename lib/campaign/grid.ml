module Fault_kind = Ffault_fault.Fault_kind
module Splitmix = Ffault_prng.Splitmix
module Check = Ffault_verify.Consensus_check
module Protocol = Ffault_consensus.Protocol
module Persistence = Ffault_recover.Persistence

type cell = {
  f : int;
  t : int option;
  n : int;
  kind : Fault_kind.t;
  rate : float;
  crashes : int;
  crash_rate : float;
  persistence : Persistence.mode;
}

type trial = { id : int; cell_id : int; cell : cell; index : int; seed : int64 }

(* The crash axes are the innermost loops: a spec that leaves them at
   their crash-free defaults enumerates exactly the same cells in the
   same order as before the crash dimension existed, so historical trial
   ids (and journals) stay valid. *)
let cells spec =
  let acc = ref [] in
  List.iter
    (fun f ->
      List.iter
        (fun t ->
          List.iter
            (fun n ->
              List.iter
                (fun kind ->
                  List.iter
                    (fun rate ->
                      List.iter
                        (fun crashes ->
                          List.iter
                            (fun crash_rate ->
                              List.iter
                                (fun persistence ->
                                  acc :=
                                    { f; t; n; kind; rate; crashes; crash_rate; persistence }
                                    :: !acc)
                                spec.Spec.persistence)
                            spec.Spec.crash_rates)
                        spec.Spec.crashes)
                    spec.Spec.rates)
                spec.Spec.kinds)
            spec.Spec.n_values)
        spec.Spec.t_values)
    spec.Spec.f_values;
  Array.of_list (List.rev !acc)

let n_cells spec =
  List.length spec.Spec.f_values * List.length spec.Spec.t_values
  * List.length spec.Spec.n_values * List.length spec.Spec.kinds
  * List.length spec.Spec.rates * List.length spec.Spec.crashes
  * List.length spec.Spec.crash_rates
  * List.length spec.Spec.persistence

let total_trials spec = n_cells spec * spec.Spec.trials

(* Per-trial seeds: the stateless SplitMix finalizer over (root seed,
   trial id), so any domain can derive any trial's seed without shared
   generator state, and the assignment never changes as the grid grows
   in trailing axes. The odd multiplier is the SplitMix golden-gamma. *)
let golden = 0x9E3779B97F4A7C15L

let seed_of spec id =
  Splitmix.hash (Int64.add spec.Spec.seed (Int64.mul (Int64.of_int (id + 1)) golden))

(* The crash plan's seed mixes the spec-level crash seed into the trial
   seed, so `--crash-seed` re-rolls every crash schedule while leaving
   the primitive-fault schedules (driven by the trial seed alone)
   untouched. *)
let crash_plan_seed spec trial_seed = Splitmix.hash (Int64.add trial_seed spec.Spec.crash_seed)

let trial_of_cells spec cells id =
  if id < 0 || id >= Array.length cells * spec.Spec.trials then
    invalid_arg "Grid.trial: id out of range";
  let cell_id = id / spec.Spec.trials in
  { id; cell_id; cell = cells.(cell_id); index = id mod spec.Spec.trials; seed = seed_of spec id }

let trial spec id = trial_of_cells spec (cells spec) id

let setup cell protocol =
  let params = Protocol.params ?t:cell.t ~n_procs:cell.n ~f:cell.f () in
  let recover =
    if cell.crashes > 0 then
      Some { Check.crashes_per_proc = cell.crashes; persistence = cell.persistence }
    else None
  in
  (* A small payload palette so invisible/arbitrary kinds have menu
     entries in driver mode; harmless for the payload-free kinds. *)
  Check.setup ~allowed_faults:[ cell.kind ]
    ~payload_palette:[ Ffault_objects.Value.Int 424242 ]
    ?recover protocol params

let in_envelope cell protocol =
  (* Each construction's theorem is stated for one fault kind: the CAS
     constructions (Thms 4/5/6) for overriding faults, the §3.4 retry
     protocol for silent faults. A cell injecting any other kind —
     nonresponsive, arbitrary, ... — sits outside every proof, so its
     failures are expected data, never theorem violations. Likewise a
     cell with crash-restarts is only covered when the protocol declares
     a recovery section: a non-recoverable protocol's crash failures are
     the expected baseline data. *)
  let covered_kind =
    if protocol.Protocol.name = "silent-retry" then Fault_kind.Silent
    else Fault_kind.Overriding
  in
  Fault_kind.equal cell.kind covered_kind
  && (cell.crashes = 0 || Protocol.recoverable protocol)
  &&
  let params = Protocol.params ?t:cell.t ~n_procs:cell.n ~f:cell.f () in
  protocol.Protocol.in_envelope params

(* Crash-free cells keep their historical keys byte-identical, so
   `campaign diff` joins old and new journals; crash cells extend the
   key with their axes. *)
let crash_suffix c =
  if c.crashes = 0 then ""
  else
    Fmt.str ",crashes=%d,crash_rate=%.3f,persist=%s" c.crashes c.crash_rate
      (Persistence.to_string c.persistence)

let cell_key c =
  Fmt.str "f=%d,t=%s,n=%d,kind=%s,rate=%.3f%s" c.f
    (match c.t with Some t -> string_of_int t | None -> "inf")
    c.n (Fault_kind.to_string c.kind) c.rate (crash_suffix c)
