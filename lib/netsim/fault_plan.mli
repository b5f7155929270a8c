(** Seed-derived fault schedules, and their replay for shrinking.

    A schedule is a pure function of its seed: the directive applied to
    the [k]-th frame on a directed link, the per-link base latency, and
    the partition / crash windows are all derived by hashing
    [(seed, link, k)] through {!Ffault_prng} — no mutable sampling
    state, so any frame's fate can be recomputed independently and a
    re-run of the same seed replays the identical schedule.

    Every fault that actually fires during a run is recorded as an
    {!atom}. On a violation, the shrinker re-runs the schedule in
    {e replay} mode with a shrinking subset of those atoms enabled
    (everything outside the subset is forced benign); because
    generation is stateless, replaying the full fired set reproduces
    the original run exactly, and ddmin over the set yields a minimal
    reproducer.

    Links are numbered [2w] (worker [w] → coordinator) and [2w+1]
    (coordinator → worker [w]); frame indices count every frame ever
    sent on the link, across reconnections, so atoms stay stable under
    shrinking. *)

type directive =
  | Drop
  | Dup  (** delivered, then delivered again *)
  | Delay of int  (** extra ns, FIFO order preserved *)
  | Reorder of int  (** extra ns, FIFO clamp bypassed — later frames overtake *)

type atom =
  | Frame of { link : int; k : int; d : directive }
  | Partition of { at_ns : int; heal_ns : int; group : int list }
      (** the workers in [group] are cut off from the coordinator in
          both directions for the window *)
  | Crash of { worker : int; at_ns : int; restart_ns : int }
  | CoordCrash of { at_ns : int; restart_ns : int }
      (** the coordinator process dies — in-memory lease table and
          connections lost, the journal survives — and restarts as the
          next incarnation at [restart_ns] *)

val atom_to_string : atom -> string

type t

val generate : seed:int64 -> workers:int -> t
(** The full schedule of [seed]: frame faults sampled on demand,
    partitions and crashes precomputed (both bounded so every schedule
    keeps making progress — drop rates stay under ~0.25, partitions
    heal, crashed workers restart). *)

val replay : t -> atoms:atom list -> t
(** Same seed and topology, but only [atoms] fire; every other fault
    is suppressed. Window atoms (partitions, crashes) are taken
    verbatim, so a replay can also inject hand-written windows the
    seed never sampled — frame atoms still only fire where the seed's
    own sample matches. *)

val frame_fault : t -> link:int -> k:int -> directive option
(** The fate of frame [k] on [link]; records the atom as fired when
    [Some]. *)

val latency_ns : t -> link:int -> int
(** Base one-way latency of [link] — schedule-derived, never shrunk
    away (latency alone cannot break exactly-once). *)

val partitions : t -> (int * int * int list) list
(** [(at_ns, heal_ns, group)] windows, enabled ones only. *)

val crashes : t -> (int * int * int) list
(** [(worker, at_ns, restart_ns)], enabled ones only. *)

val coord_crashes : t -> (int * int) list
(** [(at_ns, restart_ns)] coordinator crash windows (at most one per
    schedule), enabled ones only. Derived under a label of their own,
    so a seed's partitions, worker crashes and frame fates are exactly
    what they were before coordinator crashes existed. *)

val fired : t -> atom list
(** Every atom that fired this run, in firing order (partitions and
    crashes count as fired up front). The shrinker's starting set. *)
