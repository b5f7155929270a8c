(** Declarative campaign specifications.

    A spec names a protocol and the parameter axes the campaign sweeps:
    fault budget f, per-object bound t ([None] = the paper's ∞), process
    count n, fault kinds, fault-choice rates, plus the per-cell trial
    count and root seed. {!Grid} expands it into the deterministic trial
    grid; {!Checkpoint} persists it as the campaign manifest.

    The textual format is line-oriented [key = value] with [#] comments;
    integer axes accept comma lists and [lo..hi] ranges:

    {v
    name     = fig3-sweep
    protocol = fig3          # fig1 fig2 fig3 herlihy silent-retry tas
                             # rec-cas rec-tas naive-tas sweepN
    f        = 1..3
    t        = 1,2,unbounded
    n        = 3
    kinds    = overriding,silent
    rates    = 0.2,0.6
    trials   = 500
    seed     = 42
    v}

    The crash axes ([crashes], [crash-rates], [persistence], [crash-seed])
    default to the crash-free singletons and expand as the {e innermost}
    grid loops, so adding them to an existing spec never re-assigns the
    trial ids of its crash-free cells. *)

type t = {
  name : string;  (** artifact-directory name, [A-Za-z0-9_.-] *)
  protocol : string;  (** canonical protocol name, see {!resolve_protocol} *)
  f_values : int list;
  t_values : int option list;  (** [None] = unbounded *)
  n_values : int list;
  kinds : Ffault_fault.Fault_kind.t list;
  rates : float list;
      (** probability that a step with an available fault takes one *)
  crashes : int list;
      (** per-process crash caps to sweep; 0 = crash-free (default) *)
  crash_rates : float list;
      (** per-operation crash probabilities for the {!Ffault_recover.Crash_plan} *)
  persistence : Ffault_recover.Persistence.mode list;
      (** persistence modes to sweep ([all], [lossy], [only:<ids>]) *)
  crash_seed : int64;
      (** mixed into each trial's seed to derive its crash plan, so the
          crash schedule can be varied independently of the fault
          schedule (default 0) *)
  trials : int;  (** trials per grid cell *)
  seed : int64;  (** root seed; per-trial seeds derive from it *)
}

val has_crash_axes : t -> bool
(** Whether any crash axis differs from its crash-free default; reports
    only render the crash columns when it holds. *)

val v :
  ?name:string ->
  protocol:string ->
  ?f:int list ->
  ?t:int option list ->
  ?n:int list ->
  ?kinds:Ffault_fault.Fault_kind.t list ->
  ?rates:float list ->
  ?crashes:int list ->
  ?crash_rates:float list ->
  ?persistence:Ffault_recover.Persistence.mode list ->
  ?crash_seed:int64 ->
  trials:int ->
  ?seed:int64 ->
  unit ->
  t
(** Build and validate a spec programmatically.
    @raise Invalid_argument on an invalid spec (see {!validate}). *)

val validate : t -> (t, string) result
(** Well-formedness: resolvable protocol, non-empty axes, f ≥ 0, bounded
    t ≥ 1, n ≥ 1, rates and crash rates in [0, 1] (NaN is not), trials
    ≥ 1, filename-safe name, and every (f, t, n) the spec sweeps
    instantiates the protocol (Fig. 3 needs f ≥ 1 and a bounded t).
    Builds each cell's checker setup; runs no trial. *)

val parse : string -> (t, string) result
(** Parse the textual spec format above. *)

val of_file : string -> (t, string) result

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val equal : t -> t -> bool

val resolve_protocol : string -> (Ffault_consensus.Protocol.t, string) result
(** Canonical protocol names: fig1, fig2, fig3, herlihy, silent-retry,
    tas, rec-cas, rec-tas, naive-tas (doc/RECOVERY.md), and sweepN (the
    Fig. 2 sweep over exactly N objects). Shared with the CLI. *)

(** Axis parsers, shared with the CLI flags. *)

val ints_of_string : string -> (int list, string) result
val t_values_of_string : string -> (int option list, string) result
val kinds_of_string : string -> (Ffault_fault.Fault_kind.t list, string) result
val rates_of_string : string -> (float list, string) result
val persistence_of_string : string -> (Ffault_recover.Persistence.mode list, string) result

val pp : Format.formatter -> t -> unit
