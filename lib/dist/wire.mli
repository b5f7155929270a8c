(** Length-prefixed frame layer of the distributed-campaign protocol.

    A frame on the wire is [4-byte big-endian length][1-byte tag][payload]:
    the length counts the tag byte plus the payload, so a frame is never
    empty, and the 4-byte prefix bounds what a peer can make us buffer.
    Tags name message kinds ({!Codec}); payloads are single-line JSON
    rendered by {!Ffault_campaign.Json} — the same dialect the campaign
    artifacts already use, so no new dependencies ride in.

    Decoding is incremental and total: {!Decoder.feed} takes whatever
    the socket produced, {!Decoder.next} pops complete frames, and a
    malformed prefix (zero or oversized length) is an [Error] — the
    connection is unrecoverable past it, never an exception. *)

val version : int
(** Protocol version, 1. Exchanged in the hello/welcome handshake; a
    coordinator refuses workers speaking any other version. *)

val max_frame_bytes : int
(** Largest admissible frame body (tag + payload): 16 MiB. A length
    prefix above this is a framing error, not an allocation request. *)

type frame = { tag : char; payload : string }

val encode : frame -> string
(** The frame's wire bytes.
    @raise Invalid_argument if the payload exceeds {!max_frame_bytes}. *)

(** Incremental frame extraction from a byte stream. *)
module Decoder : sig
  type t

  val create : unit -> t

  val feed : t -> ?len:int -> string -> unit
  (** Append the first [len] bytes of [s] (default: all of them) — any
      split: a frame may arrive one byte at a time, or many frames in
      one read. They are copied before [feed] returns, so a reader may
      pass its own read buffer. *)

  val next : t -> (frame option, string) result
  (** Pop the next complete frame. [Ok None] means the buffered bytes
      are a (possibly empty) prefix of a valid frame — feed more.
      [Error] means the stream is torn (zero-length or oversized
      prefix); the decoder is poisoned and every later [next] returns
      the same error. *)
end
