(** Campaign persistence layout and resume state.

    A campaign lives under [<root>/<name>/] (default root
    [_campaigns/]): [manifest.json] is the spec that defines the grid;
    [journal.jsonl] is the trial journal. Resume = load the manifest,
    replay the journal into a done-bitmask, and run only the missing
    trial ids — already-journaled trials are never re-executed. *)

val campaign_dir : root:string -> Spec.t -> string
val journal_path : dir:string -> string

val telemetry_path : dir:string -> string
(** [telemetry.json] — the metrics snapshot of the last [run]/[resume]
    (see {!Telemetry_io}). *)

val workers_path : dir:string -> string
(** [workers.json] — per-worker lease statistics written by the
    distributed coordinator ([ffault campaign serve]); {!Report.of_dir}
    renders it as the report's Workers section. Absent on
    single-process campaigns. *)

val mkdir_p : string -> unit

val write_atomic : path:string -> string -> unit
(** Write [content] to a same-directory temp file and rename it over
    [path], so a crash mid-write can never leave a torn file. Used for
    every whole-file snapshot ([manifest.json], [workers.json],
    [telemetry.json]); the append-only journal has its own torn-tail
    recovery instead. *)

val save_manifest : dir:string -> Spec.t -> unit
(** Creates [dir] (and parents) as needed; the write is atomic
    ({!write_atomic}). *)

val load_manifest : dir:string -> (Spec.t, string) result

(** {2 Journal ownership} *)

val load_epoch : dir:string -> int
(** The epoch recorded in [owner.json]; 0 when the file is absent,
    torn, or carries no positive epoch — "never owned". *)

val claim_ownership : dir:string -> int
(** Take (or re-take) journal ownership: bump the recorded epoch by one
    and persist it via {!write_atomic}, returning the new epoch
    (strictly positive, strictly increasing across claims). A restarted
    coordinator claims before serving, so every grant it makes carries
    an epoch no previous incarnation ever used — the fencing token of
    recoverable-consensus-style crash recovery. *)

(** {2 Resume state} *)

type t
(** A done-bitmask over the trial-id space plus a completion counter.
    [mark] is idempotent per id, so duplicate journal records (possible
    if a run was killed between write and, say, an fsync of a copy)
    count once. Not thread-safe; the executor consults it only from the
    consume path, which is already serialized. *)

val fresh : total:int -> t
val is_done : t -> int -> bool
val mark : t -> int -> unit
val completed : t -> int

val remaining : t -> (int * int) list
(** The trial ids not yet marked, as ascending, disjoint, maximal,
    non-empty [\[lo, hi)] ranges — what a resumed run still has to
    execute ({!Pool.run_trials}'s [ids]), in memory that grows with the
    number of ranges, not of ids. *)

val open_campaign :
  ?resume:bool ->
  ?on_skip:(unit -> unit) ->
  ?on_warn:(string -> unit) ->
  root:string ->
  Spec.t ->
  (string * t, string) result
(** The open/resume protocol shared by every campaign executor (the
    in-process {!Pool} and the distributed coordinator): guard the
    manifest (fresh run must not clobber, resume must agree with the
    recorded spec), repair a crash-torn journal tail
    ({!Journal.recover}) {e before} the journal is reopened for append,
    and replay the journal into the resume state in one {!Journal.scan}.
    Once the tail is repaired, the lines that scan finds malformed are
    interior damage, which a crash cannot cause; their trials re-run.
    The repair and the interior damage are reported together, in one
    call of [on_warn]. [on_skip] is then called once per
    already-journaled trial, before the executor runs its first trial —
    progress meters use it to account for resume. Returns the campaign
    directory and the done-mask (empty for a fresh run). *)
