(** The simulated network: {!Wire}-framed byte links with injected
    faults, delivered through the {!Sched} event queue.

    Semantics mirror the socket transport at frame granularity. A
    {!conn} is one end of a duplex connection; sends encode through the
    real {!Ffault_dist.Wire.encode} and deliveries feed the real
    {!Ffault_dist.Wire.Decoder} on the receiving end, so malformed
    bytes fail identically to the socket path (the conformance tests
    pin this). Delivery on a link is FIFO (arrival clamped past the
    previous frame's) unless a [Reorder] directive bypasses the clamp;
    [Drop]/[Dup]/[Delay] do what they say; a partitioned worker's
    frames (both directions) are dropped at send time; a {e crashed}
    worker's endpoints turn black holes — no EOF, the coordinator must
    notice by silence. A graceful {!close} propagates an EOF event to
    the peer.

    Like the socket layer, [send] never fails on a live conn — faults
    lose frames silently; only sending on a closed conn errors. *)

type t
type conn

type handler = {
  h_frames : Ffault_dist.Wire.frame list -> unit;
  h_closed : unit -> unit;  (** peer EOF *)
  h_error : string -> unit;  (** decode error — the stream is poisoned *)
}

val create :
  sched:Sched.t -> plan:Fault_plan.t -> ?trace:(string -> unit) -> workers:int -> unit -> t
(** [trace] receives one line per network event (a fault, a connect, a
    crash, a partition or heal). Without it nothing is formatted, and
    the network behaves exactly as it does traced. *)

val set_listener : t -> (conn -> unit) option -> unit
(** The coordinator's accept path: called synchronously with the
    coordinator-side conn of each new connection. [None] = listener
    closed; subsequent {!connect}s are refused. *)

val connect : t -> worker:int -> (conn, string) result
(** A new connection from worker [worker]; returns the worker-side
    conn. Refused once the listener is closed. *)

val set_handler : conn -> handler -> unit
(** Must be set before the first delivery can land; frames arriving at
    an endpoint with no handler are dropped. *)

val peer : conn -> string
val send : conn -> Ffault_dist.Codec.msg -> (unit, string) result

val send_raw : conn -> string -> unit
(** Put raw bytes on the wire (no framing) — the conformance fuzz
    tests drive the receiving decoder with arbitrary byte strings. *)

val close : conn -> unit
(** Graceful: peer gets [h_closed] after the usual link latency. *)

val crash_worker : t -> worker:int -> unit
(** Black-hole every conn of [worker]: undelivered and future frames to
    or from it vanish, no EOF anywhere. *)

val crash_coordinator : t -> unit
(** Black-hole every coordinator-side endpoint and drop the listener:
    worker frames vanish without EOF and new connects are refused until
    {!set_listener} installs the restarted incarnation's accept path.
    Worker-side endpoints stay open — they learn of the crash only by
    silence. *)

val set_partitioned : t -> worker:int -> bool -> unit
(** While set, frames to or from [worker] are dropped at send time
    (in-flight frames still arrive — the cut is a link cut, not a
    queue flush). *)
