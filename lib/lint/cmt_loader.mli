(** Discovery and freshness-checking of the .cmt files behind the typed
    rules.

    Dune emits a cmt for every compiled module under
    [_build/default/**/.objs/byte] (libraries) and [**.eobjs/byte]
    (executables). {!create} indexes them by (logical directory, unit
    name) from filenames alone; {!for_source} maps a source path to its
    cmt, reads it, and verifies the cmt's recorded source digest against
    the file on disk. Every failure mode is a {!status} — never an
    exception — which the driver reports as a [cmt-missing] finding. *)

type status =
  | Typed of Cmt_format.cmt_infos  (** fresh: typedtree available *)
  | No_cmt  (** no cmt indexed for this source *)
  | Stale of string  (** cmt exists but the source changed since the build *)
  | Unreadable of string  (** cmt or source cannot be read/digested *)

type t

val default_build_dir : string
(** ["_build/default"]. *)

val create : ?build_dir:string -> unit -> t
(** Scan [build_dir] for cmt files; a missing directory indexes none. *)

val for_source : t -> string -> status
(** Resolve, read and freshness-check the cmt for a [.ml] source path.
    Non-[.ml] paths are [No_cmt]. *)

val describe : build_dir:string -> status -> string option
(** Why a degraded status has no typedtree; [None] for [Typed]. *)

val build_dir : t -> string
