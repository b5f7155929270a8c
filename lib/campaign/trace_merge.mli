(** The Chrome trace writer: every trace file the CLI writes comes
    from {!write}.

    A trace is a list of rows, one per process: a local campaign run is
    one row, a distributed campaign is the coordinator's own spans plus
    the batches each worker piggybacked on its heartbeats, and
    [ffault trace merge] makes one row per input file. Each row becomes
    its own pid in one [trace_event] document (Perfetto and
    [chrome://tracing] group tracks by pid), named by a [process_name]
    metadata event, and is repaired to balanced B/E pairs per
    (pid, tid), so the file loads even after a ring overwrote events or
    a process died mid-span. *)

val of_tracer_events : Ffault_telemetry.Tracer.event list -> Json.t list
(** Drained {!Ffault_telemetry.Tracer} events as pid-less Chrome span
    objects ([ts] in microseconds): the shape of a row, and of the
    batches a worker ships on its heartbeats. *)

val events_of_trace : Json.t -> Json.t list
(** The event array of a trace document: the ["traceEvents"] member of
    a full trace object, or the list itself when given a bare array;
    [[]] for anything else. *)

(** {2 Bounded rows} *)

type row
(** One process's span events as its batches arrive, of which only the
    newest {!Ffault_telemetry.Tracer.default_capacity} are kept: the
    bound of each of the tracer's own rings, so every row of a trace
    keeps its newest 65,536 events. A coordinator keeps one per worker,
    a worker one for its own [--trace] file. Not thread-safe. *)

val row : unit -> row

val add : row -> Json.t list -> unit
(** Append a batch, oldest event first, dropping the oldest events past
    the bound. *)

val events : row -> Json.t list
(** The kept events, oldest first. *)

val merge : (string * Json.t list) list -> Json.t
(** [merge [(label, events); ...]] assigns pid [1, 2, ...] to each
    row in order (replacing any pid the source stamped — OS pids are
    meaningless across hosts), prepends each row's [process_name]
    metadata event (dropping any the source carried, so re-merging a
    merged trace stays cleanly labelled), and wraps everything as
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Each row is
    put in timestamp order (stably; events without a [ts] first), then
    repaired per tid: an ["E"] with no open ["B"] is dropped, and each
    ["B"] still open at the row's end is closed by an ["E"] at the
    row's last timestamp, innermost first. *)

val write : string -> (string * Json.t list) list -> unit
(** [write path rows] writes [merge rows] into [path]
    (created/truncated). *)
