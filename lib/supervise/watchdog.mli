(** The watchdog: flags stuck workers and cancels their trials.

    A watchdog watches a {!Heartbeat.t}. A slot is {e stuck} once its
    last beat is older than [stall_ns] (slots that never beat are judged
    from the watchdog's creation time, so a worker wedged before its
    first beat is still caught). Each {!poll} flags newly stuck slots,
    cancels any token currently {!attach}ed to them (reason
    ["watchdog: no heartbeat for <n>ms"]) and bumps the
    [supervise.watchdog_flags] counter. A slot un-sticks by beating
    again — flagging is edge-triggered, so one stall is one flag.

    {!poll} is pure with respect to time (it reads the clock the
    heartbeat was created with), which is what the fake-clock unit tests
    drive. {!start} wraps it in a background thread for production use,
    mirroring {!Ffault_telemetry.Progress}. *)

type t

val create :
  ?clock:Ffault_runtime.Clock.t -> heartbeat:Heartbeat.t -> stall_ns:int -> unit -> t
(** [clock] defaults to the heartbeat's own clock (which is almost
    always what you want — stall judgement must read the clock beats
    are stamped with).
    @raise Invalid_argument if [stall_ns < 1]. *)

val attach : t -> slot:int -> Ffault_runtime.Cancel.t -> unit
(** Register [slot]'s current trial token; the next flagging of [slot]
    cancels it. Replaces any previous token for the slot. *)

val poll : t -> int list
(** Flag newly stuck slots: cancel their attached tokens and return
    their indices (ascending). Slots already flagged and still silent
    are not re-returned. *)

val flagged : t -> slot:int -> bool
(** Is [slot] currently flagged (stuck since its last beat)? *)

(** {2 Background thread} *)

type handle

val start : ?interval_s:float -> t -> handle
(** Poll every [interval_s] (default 0.1s) on a daemon-style thread
    until {!stop}. *)

val stop : handle -> unit
(** Idempotent; joins the thread. *)
