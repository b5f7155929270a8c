(** One simulated campaign: the real {!Ffault_dist.Core} coordinator
    engine plus [workers] simulated worker actors, on a {!Net} network
    under a {!Fault_plan} schedule, all inside a single {!Sched} run of
    virtual time.

    The worker actors speak the protocol through
    {!Ffault_dist.Worker.Protocol} (the same classification the socket
    worker uses) and synthesize deterministic trial records from the
    grid, so the journal a run produces is a pure function of
    [(config, seed)] — byte-identical across re-runs, which the tests
    pin.

    The coordinator itself is a crashable actor: a
    {!Fault_plan.atom.CoordCrash} window drops the engine — lease
    table, connections, epoch state, everything in memory — while the
    in-memory journal (the stand-in for the journal file) survives; the
    restart boots the next incarnation through the same
    journal-recovery path [serve --resume] runs, and the worker actors
    ride it out with bounded connect backoff plus an in-flight-lease
    replay, like the socket worker.

    Two invariants are checked: {e exactly-once} — when the run ends,
    the journal must hold every trial id exactly once and the
    coordinator must have declared completion within the virtual-time
    horizon — and the {e worker-side} rule that no worker executes the
    same trial twice without a reconcile (a lease requeue or a
    coordinator recovery) between. Anything else is a {!violation}. *)

type config = {
  workers : int;
  trials : int;
  lease_trials : int;  (** shard size *)
  verify_complete : bool;
      (** [false] plants the lease-retirement bug (a [Complete] retires
          its lease without checking the journal) — the mutation the
          schedule search must catch *)
  fence_epochs : bool;
      (** [false] plants the fencing bug (a [Complete] carrying a stale
          incarnation's grant epoch is trusted, retiring whatever live
          lease happens to reuse the id) — only coordinator-crash
          schedules can expose it *)
  horizon_ns : int;  (** virtual-time backstop for stalled schedules *)
}

val config :
  ?workers:int ->
  ?trials:int ->
  ?lease_trials:int ->
  ?verify_complete:bool ->
  ?fence_epochs:bool ->
  ?horizon_ns:int ->
  unit ->
  config
(** Defaults: 3 workers, 200 trials, shards of 32, verification on,
    fencing on, 60 s (virtual) horizon. *)

type violation =
  | Duplicate of int  (** this trial id journaled more than once *)
  | Hole of int  (** never journaled, yet the run ended *)
  | Stalled of string  (** horizon hit or events drained before completion *)
  | Reexec of { worker : string; trial : int }
      (** the worker-side checker: this worker executed the trial under
          two different leases of one coordinator incarnation with no
          reconcile between — the earlier lease was never requeued, so
          the range could only travel twice if a lease was retired on a
          stale incarnation's word (re-running a duplicated copy of one
          grant frame is {e not} a violation: dedup absorbs it) *)

val violation_to_string : violation -> string

type result = {
  violation : violation option;  (** first violation found, severity order *)
  fired : Fault_plan.atom list;  (** the schedule's fired atoms — shrinker input *)
  records : Ffault_campaign.Journal.record list;  (** append order *)
  trace : string list;
      (** deterministic event trace, forward order; [[]] untraced *)
  events : int;  (** scheduler events executed *)
  end_ns : int;  (** virtual time at exit *)
  status_probes : (int * string * string) list;
      (** [(virtual_ns, path, body)] — the exact {!Ffault_dist.Status}
          responses the live endpoint would serve, scraped at 1 s of
          virtual time and again at completion for [/status],
          [/workers] and [/events]. Pure function of [(config, seed)],
          so the tests pin them byte-for-byte. *)
}

val run : ?atoms:Fault_plan.atom list -> ?trace:bool -> config -> seed:int64 -> result
(** Simulate one schedule. Without [atoms] the full schedule of [seed]
    runs (generate mode); with [atoms] only those fire (replay mode —
    the shrinker's probe). Two calls with equal arguments return equal
    results.

    [trace] (default [true]) builds [result.trace]. With [false] no
    trace line is formatted, by the harness or by {!Net}, and [trace]
    is [[]]; every other field (violation, fired atoms, records, events,
    end time, status probes) is the traced run's. The sweep and the
    shrinker run untraced. *)

val journal_bytes : result -> string
(** The JSONL the journal file would hold: one {!Ffault_campaign.Journal.to_line}
    per record of [records], in order, each ending in a newline. Derived
    on demand, so a run that never reads it never renders it. *)
