(** Per-cell quarantine: k strikes and the cell is out.

    Each grid cell accumulates {e strikes} — deterministic-protocol
    failures reported by the pool. A cell crossing the threshold is
    marked {e degraded}: its remaining trials are skipped (journaled as
    quarantined so resume does not resurrect them) and the campaign
    report carries the cell in its health section. This is what bounds
    a supervised campaign over pathological cells (livelocks that run
    to their step budget): each cell costs at most [threshold] deadline
    waits, not [trials] of them.

    Thread-safe; strikes from racing workers may both see the crossing,
    but the [supervise.quarantined] counter and {!degraded_cells} count
    each cell once. *)

type t

val create : ?threshold:int -> cells:int -> unit -> t
(** [threshold] strikes (default 3) degrade a cell.
    @raise Invalid_argument if [threshold < 1] or [cells < 0]. *)

val strike : t -> cell:int -> [ `Active | `Degraded ]
(** Record a strike against [cell]; the state after the strike. The
    strike that crosses the threshold bumps [supervise.quarantined]. *)

val degraded : t -> cell:int -> bool
val strikes : t -> cell:int -> int

val degraded_cells : t -> int list
(** Ascending indices of degraded cells. *)
