(** Live campaign progress: the state behind the
    [ffault campaign run --progress] status line.

    The pool's consume path feeds it ({!on_record}/{!on_skip}); a
    {!Ffault_telemetry.Progress} reporter thread reads it concurrently
    through {!render}. All counters are atomics, so the renderer needs
    no lock and the writers stay on the journal's serialized path.

    The rendered line packs: completed/total trials and percentage,
    live trials/s, an ETA extrapolated from the grid size, the running
    failure rate ([Violation] records only, as {!Report} counts them),
    and a per-cell heat line (one glyph per grid cell — ['.'] clean,
    ['1'..'9'] failure-rate deciles, ['?'] untouched; grids wider than
    48 glyphs aggregate adjacent cells). *)

type t

val create : Spec.t -> t
(** Starts the wall clock. *)

val on_record : t -> Journal.record -> unit
val on_skip : t -> unit
(** A trial the resume mask excluded (counts toward grid completion but
    not toward the trials/s rate). *)

val render : t -> string
(** One line, no ['\n'], no ANSI escapes (the reporter adds those only
    on TTYs). *)
