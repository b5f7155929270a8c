(** A hardware-backed CAS cell with software-injected overriding faults.

    The correct path is a [compare_and_set] loop returning the original
    content (linearizable CAS-with-old). The faulty path is
    [Atomic.exchange] — an unconditional swap returning the old value,
    which is {e exactly} the overriding postcondition Φ′
    (R = val ∧ old = R′), realized atomically by the hardware.

    Per Definition 1, a "fault" whose outcome coincides with the correct
    one (the comparison would have succeeded anyway, or the written value
    equals the current content) is no fault: such injections are refunded
    and not counted. The per-object bound t is enforced with an atomic
    reservation counter, so a cell never commits more than t observable
    faults even under domain races.

    Fault plans must be thread-safe; the provided ones decide from a
    stateless hash of (seed, operation index). *)

type plan = { plan_name : string; fire : op_index:int -> bool }
(** Decides whether to {e attempt} an overriding fault on the cell's
    [op_index]-th CAS (0-based; indices are assigned by an atomic
    counter, so they are unique but races decide which op gets which). *)

val plan_never : plan
val plan_always : plan

val plan_probabilistic : seed:int64 -> p:float -> plan
(** Fires on each op independently with probability [p], decided by a
    stateless hash — deterministic given (seed, op index). [p = 1]
    fires on every op.
    @raise Invalid_argument if [p] is NaN or outside [\[0, 1\]]. *)

val plan_first_n : int -> plan
val plan_every_kth : int -> plan
(** [plan_every_kth k] fires on ops 0, k, 2k, …
    @raise Invalid_argument if [k < 1]. *)

type style =
  | Override
      (** the paper's overriding fault: the write happens unconditionally
          ([Atomic.exchange]) *)
  | Suppress
      (** the silent fault (§3.4): the write is dropped even when the
          comparison succeeds; the returned old value stays truthful *)
  | Hang
      (** the nonresponsive fault (§3.4): the invocation never returns.
          The stuck call spins on the cell's cancellation token and exits
          only by raising {!Cancel.Cancelled} — give the cell a real
          token via [make ?cancel] (e.g. a deadline) or the caller hangs
          forever, which is the faithful-but-unsupervised semantics. *)

type t

val make :
  ?plan:plan -> ?style:style -> ?t_bound:int -> ?cancel:Cancel.t -> init:Packed.t -> unit -> t
(** Defaults: [plan_never], [Override], unbounded t, {!Cancel.never}.
    [cancel] is polled at every {!cas} entry and contended retry (so even
    a livelocked loop of individually-fast CASes observes it) and inside
    the {!Hang} spin: a tripped token bounds every invocation. *)

val cas : t -> expected:Packed.t -> desired:Packed.t -> Packed.t
(** Returns the original content; possibly executes the overriding
    fault per the plan and budget.
    @raise Cancel.Cancelled if the cell's token trips while this
    invocation is spinning (contended retry or a {!Hang} fault). *)

val observable_faults : t -> int
(** Observable faults committed so far (≤ t_bound when bounded). *)

val ops_performed : t -> int

val peek : t -> Packed.t
(** Read the current content — a harness/debug facility only; the paper's
    CAS object offers no read operation, and no protocol here uses it. *)
