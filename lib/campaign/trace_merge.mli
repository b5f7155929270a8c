(** The Chrome trace writer: every trace file the CLI writes comes
    from {!write}, and this module is the only one that knows the
    Chrome span format.

    A span stays a {!Ffault_telemetry.Tracer.event} from the tracer's
    ring to the file; Chrome JSON exists only where bytes leave the
    process: a worker's heartbeat batch ({!to_json}, read back by
    {!of_json}) and the trace file.

    A trace is a list of rows, one per process: a local campaign run is
    one row, a distributed campaign is the coordinator's own spans plus
    the batches each worker piggybacked on its heartbeats, and
    [ffault trace merge] makes one row per input file. Each row becomes
    its own pid in one [trace_event] document (Perfetto and
    [chrome://tracing] group tracks by pid), named by a [process_name]
    metadata event, and is repaired to balanced B/E pairs per
    (pid, tid), so the file loads even after a ring overwrote events or
    a process died mid-span. *)

val to_json : Ffault_telemetry.Tracer.event -> Json.t
(** An event as a pid-less Chrome span object:
    [{"name":..,"cat":..,"ph":..,"ts":..,"tid":..}], [ts] in
    microseconds. A trace file's events are these objects with the
    row's [pid] added last. *)

val of_json : Json.t -> Ffault_telemetry.Tracer.event list
(** The spans of a heartbeat batch (a list of span objects) or of a
    trace document (an object whose ["traceEvents"] member is such a
    list): every ["B"], ["E"] or ["i"] entry with a string [name], a
    numeric [ts] and an integer [tid], in order, its [cat] [""] when
    absent and its [ts] rounded to the nanosecond. Total: metadata
    (such as [process_name]), entries of other phases and malformed
    entries are dropped, and anything else reads as [[]]. *)

(** {2 Bounded rows} *)

type row
(** One process's span events as its batches arrive, of which only the
    newest {!Ffault_telemetry.Tracer.default_capacity} are kept: the
    bound of each of the tracer's own rings, so every row of a trace
    keeps its newest 65,536 events. A coordinator keeps one per worker,
    a worker one for its own [--trace] file. Not thread-safe. *)

val row : unit -> row

val add : row -> Ffault_telemetry.Tracer.event list -> unit
(** Append a batch, oldest event first, dropping the oldest events past
    the bound. *)

val events : row -> Ffault_telemetry.Tracer.event list
(** The kept events, oldest first. *)

(** {2 Writing} *)

val write : string -> (string * Ffault_telemetry.Tracer.event list) list -> unit
(** [write path [(label, events); ...]] writes one Chrome trace to
    [path] (created/truncated), one event at a time:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}]. Row [i] gets
    pid [i + 1] and starts with its [process_name] metadata event
    naming it [label]. Its events follow in timestamp order (stably),
    repaired per tid: an ["E"] with no open ["B"] is dropped, and each
    ["B"] still open at the row's end is closed by an ["E"] at the
    row's last timestamp, innermost first, tid by tid in ascending
    order. *)
