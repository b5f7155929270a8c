(** Fault-schedule search: sweep seed-derived schedules through
    {!Sim.run}, and shrink any violation to a minimal reproducer.

    Schedule [i] of a sweep rooted at [root] runs under
    [schedule_seed ~root i] — re-running a single index by its printed
    seed reproduces the identical event trace, which is how a violation
    found overnight is debugged in the morning.

    Shrinking is ddmin over the failing run's fired atoms: replaying
    the full fired set reproduces the violation exactly (fault
    generation is stateless — see {!Fault_plan}), so subsets are probed
    chunk-and-complement until 1-minimal. The shrunk schedule's
    violation may differ in kind from the original (a smaller fault set
    can surface the bug earlier); both are reported. *)

val schedule_seed : root:int64 -> int -> int64
(** The FNV-1a hash of the label ["<root>#<i>"] ({!Ffault_prng.Rng.seed_of_string}
    of it), computed from the label's parts. *)

val shrink :
  config:Sim.config ->
  seed:int64 ->
  atoms:Fault_plan.atom list ->
  violation:Sim.violation ->
  Fault_plan.atom list * Sim.violation * int
(** [(minimal_atoms, their_violation, probes_spent)]. Probes are capped
    (a few hundred); on cap the best subset so far is returned — still
    failing, maybe not 1-minimal. *)

type report = {
  s_index : int;  (** schedule index within the sweep *)
  s_seed : int64;  (** its derived seed — the reproducer handle *)
  s_violation : Sim.violation;  (** as first observed *)
  s_fired : int;  (** atoms fired by the full schedule *)
  s_shrunk : Fault_plan.atom list;  (** the minimal reproducer *)
  s_shrunk_violation : Sim.violation;
  s_probes : int;  (** sim runs spent shrinking *)
}

type sweep = {
  explored : int;  (** schedules actually run *)
  violations : report list;  (** in discovery order *)
  total_events : int;  (** scheduler events across all runs *)
}

val explore :
  ?on_progress:(int -> unit) ->
  ?max_violations:int ->
  config:Sim.config ->
  root:int64 ->
  schedules:int ->
  unit ->
  sweep
(** Run schedules [0 .. schedules-1], shrinking each violation as it is
    found; stop early after [max_violations] (default 1 — the usual CLI
    mode wants the first reproducer, not a catalogue). [on_progress]
    fires after each schedule with its index. *)
