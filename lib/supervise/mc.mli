(** Watchdog-supervised multicore consensus: {!Ffault_runtime.Consensus_mc}
    with a liveness beacon per domain.

    A deadline bounds the whole trial: every CAS polls the trial's
    token, and so does a domain inside a nonresponsive CAS
    ([Faulty_cas.hang] checks it on every spin). What the watchdog adds
    is a bound on per-step silence below the deadline. Every domain
    heartbeats into its own {!Heartbeat} slot — at domain start and
    before each CAS, via the runtime's [on_progress] hook — and a
    {!Watchdog} thread watches the slots: a domain silent past the
    stall bound is flagged and the {e whole trial's} shared token is
    cancelled (consensus is all-or-nothing — a stuck domain starves its
    peers' CAS-help protocol anyway), so every domain unwinds through
    the usual [Timed_out] path.

    The stall bound defaults to [max 0.5s, 4 × deadline]: generous
    enough that a merely slow domain beats again first, so a flag means
    wedged, not busy. That default is never below the deadline, so only
    an explicit [watchdog_stall_s] under the deadline lets the watchdog
    fire first. *)

type result = {
  mc : Ffault_runtime.Consensus_mc.result;
  stalls : int;  (** domains flagged by the watchdog (0 on a clean trial) *)
  watched : bool;  (** false when no stall bound applied (plain execute) *)
}

val stall_bound_s : deadline_s:float option -> override_s:float option -> float option
(** The effective stall bound: [override_s] if given, else
    [max 0.5, 4 × deadline] when there is a deadline, else [None] (no
    supervision — exposed for tests). *)

val execute :
  ?watchdog_stall_s:float ->
  ?cancel:Ffault_runtime.Cancel.t ->
  Ffault_runtime.Consensus_mc.config ->
  result
(** Run one supervised consensus trial. With neither a deadline in the
    config nor [watchdog_stall_s], this is exactly
    [Consensus_mc.execute] ([watched = false]). Otherwise the trial
    runs under a shared cancellation token (the given [cancel], or one
    derived from the config's deadline) with heartbeat slots per domain
    and a background watchdog; [stalls] counts flagged domains.
    @raise Invalid_argument if [watchdog_stall_s] is not finite and
    positive. *)
