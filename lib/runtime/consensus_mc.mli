(** The paper's consensus protocols on the real-multicore substrate.

    The algorithm code is shared with the simulator — the
    {!Ffault_consensus.Algorithms} functor instantiated over
    {!Faulty_cas} cells — so what runs on hardware atomics is the very
    text that was model-checked. Used by experiment B3 and the multicore
    integration tests. *)

type protocol =
  | Single_cas  (** Fig. 1 / Herlihy: one object *)
  | Sweep of int  (** Fig. 2 over the given number of objects *)
  | Staged of { f : int; t : int }
      (** Fig. 3: f objects, maxStage = t·(4f + f²) *)
  | Silent_retry  (** §3.4 retry loop; pair with a bounded fault plan *)

val pp_protocol : Format.formatter -> protocol -> unit

type config = {
  protocol : protocol;
  n_domains : int;
  inputs : int array;  (** plain non-negative inputs, one per domain *)
  plan_for : int -> Faulty_cas.plan;  (** fault plan per object index *)
  style : Faulty_cas.style;  (** overriding, silent or nonresponsive *)
  t_bound : int option;  (** per-object observable-fault cap *)
  deadline_s : float option;  (** wall-clock trial deadline, seconds *)
}

val config :
  ?plan_for:(int -> Faulty_cas.plan) ->
  ?style:Faulty_cas.style ->
  ?t_bound:int ->
  ?inputs:int array ->
  ?deadline_s:float ->
  n_domains:int ->
  protocol ->
  config
(** Defaults: no faults, overriding style, unbounded t, inputs 100, 101,
    …, no deadline. For [Staged] protocols [t_bound] defaults to the
    protocol's t.
    @raise Invalid_argument if [n_domains < 1], if a [Sweep] has no
    object or a [Staged] protocol has [f < 1] or [t < 1], if [style] is
    {!Faulty_cas.Hang} without a deadline (such a trial could never
    end), or if [deadline_s] is not finite and positive. *)

type outcome =
  | Decided of Packed.t
  | Timed_out of string
      (** the trial's deadline passed mid-protocol; carries the
          cancellation reason *)

type result = {
  outcomes : outcome array;  (** per-domain outcome *)
  decisions : Packed.t array;
      (** per-domain decision; {!Packed.bottom} placeholder for
          timed-out domains (kept for callers indexing decisions) *)
  faults_per_object : int array;  (** observable faults committed *)
  ops_per_object : int array;
  agreed : bool;  (** all {e decided} values equal (vacuous if none) *)
  valid : bool;  (** every {e decided} value is some domain's input *)
  timeouts : int;  (** domains that timed out — wait-freedom losses *)
}

val execute : config -> result
(** One full parallel consensus: spawn the domains, decide, audit.
    The trial's one cancellation token is {!Cancel.after} [cfg.deadline_s],
    or {!Cancel.never} without a deadline. Every CAS polls it, and so
    does a domain inside a nonresponsive CAS, so the deadline bounds
    every wait of the trial. *)
