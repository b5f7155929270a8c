(** The campaign journal: one JSONL record per completed trial.

    The journal is the campaign's source of truth — append-only, safe to
    write from many domains through the mutexed {!writer}, and durable
    against process death by group commit: the writer flushes once per
    64 records, on {!flush} and at close, so a killed writer loses at
    most the records since its last flush. That bound keeps resume
    sound:
    - every trial is deterministic, so a lost record is re-run to the
      same line, and the checkpoint scan re-runs every id the journal
      lacks; nothing is journaled twice;
    - appends are sequential, so only the tail can tear: what reached
      the file is a prefix of the written bytes, even when the channel
      writes out a full buffer mid-line. {!recover} repairs that tail;
    - a pool loses fewer than 64 records; a coordinator, which flushes
      once per loop turn, loses that turn's records, and the next epoch
      re-leases them under grants that fence the dead one's.

    Durability is against process death, not power loss: there is no
    [fsync]. {!Checkpoint} replays the journal to decide which trials
    are already done; {!Report} aggregates it into per-cell statistics.

    Record schema (see doc/CAMPAIGNS.md):
    {v
    {"trial":17,"f":2,"t":1,"n":3,"kind":"overriding","rate":0.4,
     "seed":"-553...","ok":false,"outcome":"violation","retries":0,
     "violations":["consistency: ..."],
     "steps":41,"max_steps":17,"stage":3,"faults":2,"wall_us":180,
     "witness":[1,0,2]}
    v}

    Records from crash cells additionally carry the cell's crash axes
    ([crashes], [crash_rate], [persistence]) and the trial's
    [crash_faults] count; crash-free records omit them entirely and stay
    byte-identical to pre-recovery journals (and pre-recovery journals
    parse with the crash-free defaults). *)

type outcome =
  | Pass  (** ran to completion, no violations *)
  | Violation  (** ran to completion, oracle violations found *)
  | Timeout
      (** cancelled at the deadline (after retries, if any) — no verdict
          on the protocol, a wait-freedom loss for the harness *)
  | Quarantined  (** skipped: its cell was degraded before it ran *)

type record = {
  trial : int;  (** dense trial id, see {!Grid} *)
  cell : Grid.cell;
  seed : int64;
  ok : bool;  (** [outcome = Pass] (kept explicit for older readers) *)
  outcome : outcome;
  retries : int;  (** failed attempts before this record's outcome *)
  violations : string list;  (** rendered violations when [not ok] *)
  steps : int;  (** total engine steps *)
  max_steps : int;  (** worst per-process operation count *)
  stage : int;  (** max Fig. 3 stage reached in final states; -1 if none *)
  faults : int;  (** observable faults charged *)
  crash_faults : int;  (** crash-restarts charged; 0 in crash-free cells *)
  wall_us : int;  (** the journaled run's wall time, µs *)
  witness : int array option;
      (** on a [Violation], the raw decision vector of the trial's run,
          so the line is the same whichever executor ran the trial;
          {!Report} minimizes each cell's first failures *)
}

val to_line : record -> string
(** One JSONL line (no newline): the record's JSON object in the schema's
    key order, in the bytes {!Json.to_string} gives that object. This is
    the only record printer: the distributed codec's [Result] frame
    carries this line as its payload. It prints the fields a record
    takes from its cell once per run of records from one cell, on each
    domain. *)

val same_line_cell : Grid.cell -> Grid.cell -> bool
(** The two cells print the same fields on a journal line: [f], [t],
    [n], [kind] and [rate] always, and the crash axes when the cells have
    crashes. Floats are compared by their bits, as they print. *)

val of_line : string -> (record, string) result
(** The one record reader: a journal line, or a [Result] frame's payload,
    read in one pass into its record, with no JSON tree built. It accepts
    exactly what {!Json.of_string} accepts, with the same error text.
    Of a key given twice the first value counts, as {!Json.member} finds
    it; unknown keys are parsed and skipped. Fields absent from older
    journals take their defaults: [outcome] follows [ok], [retries] is 0,
    and a record without crash fields is crash-free. *)

(** {2 Writing} *)

type writer

val create_writer : path:string -> writer
(** Opens (creating or appending) the journal file. *)

val append : writer -> record -> unit
(** Serialized by an internal mutex. Puts the line in the channel's
    buffer; every 64th record since the last flush writes the group out
    (one [campaign.journal.flushes] and one [journal.flush] span). *)

val flush : writer -> unit
(** Writes out the pending records. With none pending it does nothing:
    no system call, no counter. The coordinator calls it once per loop
    turn. *)

val close_writer : writer -> unit
(** Flushes the pending records, as {!flush}, and closes the file. *)

(** {2 Crash recovery} *)

type recovery = { dropped_bytes : int; warning : string option }

val recover : path:string -> recovery
(** Repair the torn trailing line a killed run can leave (a write that
    stopped inside ["record\n"]). Appends are sequential, so only that
    line can tear: [recover] reads only the bytes after the file's last
    newline, seeking back from its end. A parseable tail that merely
    lost its newline is completed in place; an unparseable tail is
    truncated away, so the checkpoint scan re-runs that trial. Must be
    called before reopening the journal for append on resume —
    otherwise the next record would concatenate onto the torn bytes and
    corrupt both. A missing, empty, or newline-terminated file repairs
    nothing. Malformed interior lines are left in place; {!scan} counts
    them. *)

(** {2 Reading} *)

type health = {
  h_lines : int;  (** non-blank lines *)
  h_parsed : int;
  h_malformed : int;
      (** lines that do not parse. Only the final line can tear in a
          crash, so once {!recover} has run, each one points at
          filesystem corruption, a concurrent writer, or hand edits *)
}

val scan : path:string -> init:'a -> f:('a -> record -> 'a) -> 'a * health
(** The one journal reader: stream the file once, in write order,
    folding [f] over the records that parse, and count its lines and its
    malformed lines — what [campaign report]'s health section shows.
    Memory is one line at a time plus [f]'s accumulator. A missing file
    is an empty, healthy journal (all zeros). *)

val fold : path:string -> init:'a -> f:('a -> record -> 'a) -> 'a
(** {!scan} without the health: malformed lines (a torn final write) are
    skipped. *)

val load : path:string -> record list
val count : path:string -> int
