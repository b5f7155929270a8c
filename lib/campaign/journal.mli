(** The campaign journal: one JSONL record per completed trial.

    The journal is the campaign's source of truth — durable (each record
    is flushed as written, so a killed run loses at most the record
    mid-write), append-only, and safe to write from many domains through
    the mutexed {!writer}. {!Checkpoint} replays it to decide which
    trials are already done; {!Report} aggregates it into per-cell
    statistics.

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
  wall_us : int;  (** trial wall time, µs (includes shrinking) *)
  witness : int array option;  (** minimized decision vector on failure *)
}

val to_line : record -> string
(** One JSONL line (no newline): the record's JSON object in the schema's
    key order, in the bytes {!Json.to_string} gives that object. This is
    the only record printer: the distributed codec's [Result] frame
    carries this line as its payload. It prints the fields a record
    takes from its cell once per run of records from one cell, on each
    domain. *)

val of_json : Json.t -> (record, string) result

val of_line : string -> (record, string) result

(** {2 Writing} *)

type writer

val create_writer : path:string -> writer
(** Opens (creating or appending) the journal file. *)

val append : writer -> record -> unit
(** Serialized by an internal mutex; flushes each record. *)

val close_writer : writer -> unit

(** {2 Crash recovery} *)

type recovery = {
  dropped_bytes : int;
  interior_torn : int;
      (** malformed {e newline-terminated} records. A crash can only tear
          the final line (appends are sequential, flushed per record), so
          interior damage points at filesystem corruption, a concurrent
          writer, or hand edits — surfaced here and in the report's
          health section rather than silently skipped by {!fold}. *)
  warning : string option;
}

val recover : path:string -> recovery
(** Repair the torn trailing line a killed run can leave (a partial
    flush of ["record\n"]). A parseable tail that merely lost its
    newline is completed in place; an unparseable tail is truncated
    away, so the checkpoint scan re-runs that trial. Also counts
    interior torn records (see {!recovery.interior_torn}); those are
    left in place — their trials re-run via the checkpoint scan. Must be
    called before reopening the journal for append on resume — otherwise
    the next record would concatenate onto the torn bytes and corrupt
    both. A missing, empty, or newline-terminated file repairs nothing. *)

(** {2 Health} *)

type health = {
  h_lines : int;  (** non-blank lines *)
  h_parsed : int;
  h_malformed : int;  (** lines {!fold} would silently skip *)
}

val health : path:string -> health
(** Scan the whole journal and report its parse health — what
    [campaign report]'s health section shows. A missing file is healthy
    (all zeros). *)

(** {2 Reading} *)

val fold : path:string -> init:'a -> f:('a -> record -> 'a) -> 'a
(** Stream the journal in write order. A missing file is an empty
    journal; malformed lines (a torn final write) are skipped. *)

val load : path:string -> record list
val count : path:string -> int
