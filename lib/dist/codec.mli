(** Typed messages of the coordinator/worker protocol and their
    {!Wire.frame} encoding.

    Payloads are {!Ffault_campaign.Json} objects, reusing the campaign's
    spec serializer verbatim. A [Result] frame's payload is
    {!Ffault_campaign.Journal.to_line} of its record, the only record
    printer: exactly the JSONL line the coordinator will journal. Every
    decoder is total: an unknown tag or malformed payload is an
    [Error], never an exception (the fuzz tests in [test_dist]
    hold this). *)

module Json = Ffault_campaign.Json
module Spec = Ffault_campaign.Spec
module Journal = Ffault_campaign.Journal

(** The supervision settings a coordinator imposes on its workers: the
    record the workers' pools run under. A [Welcome] carries four of
    its fields ([deadline_s], the retry policy's [max_retries],
    [quarantine_after], [adaptive_deadline]); the decoder rebuilds the
    rest of the retry policy from its defaults. *)
type supervision = Ffault_campaign.Pool.supervision

val no_supervision : supervision
(** {!Ffault_campaign.Pool.default_supervision}: no deadline. *)

type msg =
  | Hello of { version : int; name : string; domains : int; last_epoch : int }
      (** worker → coordinator, first frame of a connection.
          [last_epoch] is the coordinator incarnation the worker last
          spoke to (0 on a first connect), so a restarted coordinator
          can tell a returning worker from a fresh one. *)
  | Welcome of {
      version : int;
      epoch : int;  (** this coordinator incarnation (from [owner.json]) *)
      spec : Spec.t;
      supervision : supervision;
      hb_interval_s : float;  (** how often the worker must heartbeat *)
    }  (** coordinator → worker, accepting the hello *)
  | Request  (** worker → coordinator: give me a lease *)
  | Lease of { lease : int; epoch : int; lo : int; hi : int; done_ids : int list }
      (** coordinator → worker: run trials [\[lo, hi)] minus [done_ids]
          (already journaled — set on re-leases after a worker death).
          [epoch] is the granting incarnation; the worker echoes it on
          the matching [Complete] so a post-restart coordinator can
          fence grants it never made. *)
  | Result of Journal.record  (** worker → coordinator, one per trial *)
  | Complete of { lease : int; epoch : int }
      (** worker → coordinator: lease finished. [epoch] is the grant's
          epoch, not the current one — a [Complete] whose epoch is not
          the coordinator's own incarnation is fenced (the journal, not
          a stale incarnation's bookkeeping, decides the shard's fate).
          Epoch fields are optional on the wire and default to 0, so
          pre-failover frames still decode. *)
  | Heartbeat of { snapshot : Json.t option; spans : Json.t option }
      (** worker → coordinator, liveness while a lease runs. New workers
          piggyback a telemetry snapshot ({!Ffault_campaign.Telemetry_io}
          shape) and a Chrome-span batch on the beat; both fields are
          optional on the wire, so a pre-observability worker's bare
          beat ([{}]) still decodes and a new worker's beat is ignored
          gracefully by an old coordinator. *)
  | Wait of { seconds : float }
      (** coordinator → worker: no shard free right now (all leased),
          ask again after [seconds] *)
  | Bye of { reason : string }  (** either direction, terminal *)

val heartbeat : msg
(** The bare liveness beat: [Heartbeat] with neither snapshot nor
    spans — encodes byte-identically to the legacy frame. *)

val to_frame : msg -> Wire.frame
val of_frame : Wire.frame -> (msg, string) result
(** [Error] on an unknown tag, a malformed payload, a [Wait] whose
    [seconds] is negative or not finite, or a [Welcome] whose
    [hb_interval_s] is not finite and positive or whose supervision
    {!Ffault_campaign.Pool.supervision} rejects (a deadline that is not
    finite and positive, [max_retries < 0], [quarantine_after < 1], an
    adaptive deadline without a deadline). *)

val pp : Format.formatter -> msg -> unit
(** One-line rendering for logs (records and specs elided). *)
