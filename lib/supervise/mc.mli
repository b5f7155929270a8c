(** Watchdog-supervised multicore consensus: {!Ffault_runtime.Consensus_mc}
    with a liveness beacon per domain.

    A deadline bounds the whole trial: every CAS polls the trial's
    token, and so does a domain inside a nonresponsive CAS
    ([Faulty_cas.hang] checks it on every spin). What the watchdog adds
    is a bound on per-step silence below the deadline, so it runs only
    when that bound, [watchdog_stall_s], is given; a deadline alone is
    {!Ffault_runtime.Consensus_mc.execute}'s to enforce. Every watched
    domain beats its own {!Heartbeat} slot — at domain start and before
    each CAS, via the runtime's [on_progress] hook — and a {!Watchdog}
    thread watches the slots: a domain silent past the stall bound is
    flagged and the {e whole trial's} shared token is cancelled
    (consensus is all-or-nothing — a stuck domain starves its peers'
    CAS-help protocol anyway), so every domain unwinds through the
    usual [Timed_out] path. *)

type result = {
  mc : Ffault_runtime.Consensus_mc.result;
  stalls : int;  (** domains flagged by the watchdog (0 on a clean trial) *)
  watched : bool;  (** false without [watchdog_stall_s] (plain execute) *)
}

val execute :
  ?watchdog_stall_s:float ->
  ?cancel:Ffault_runtime.Cancel.t ->
  Ffault_runtime.Consensus_mc.config ->
  result
(** Run one supervised consensus trial. Without [watchdog_stall_s] this
    is exactly [Consensus_mc.execute] ([watched = false]), whether or not
    the config has a deadline. With it, the trial runs under a shared
    cancellation token (the given [cancel], or one derived from the
    config's deadline) with heartbeat slots per domain and a background
    watchdog; [stalls] counts flagged domains.
    @raise Invalid_argument if [watchdog_stall_s] is not finite and
    positive. *)
