(** The rule registry: names, default severities, layers, and the
    metadata behind [--list-rules] and [--explain]. *)

type layer =
  | Ast  (** parsetree pass: the shape rules *)
  | Typed  (** typed-tree pass over a fresh .cmt (see {!Cmt_loader}) *)
  | Fs  (** filesystem-level (mli-required) *)

val layer_to_string : layer -> string
(** ["ast"], ["typed"], ["fs"] — the ["layer"] field of lint.json. *)

type t = {
  name : string;
  severity : Finding.severity;
  summary : string;  (** one line; feeds [--list-rules] *)
  layer : layer;
  rationale : string;  (** full description; feeds [--explain] *)
  example : string;  (** an example finding line; feeds [--explain] *)
}

val substantive : t list
(** The checked invariants, each produced by exactly one pass: three
    parsetree rules (toplevel-mutable, catch-all, effect-discipline),
    one filesystem rule (mli-required) and six typed rules (raw-atomic,
    nondeterminism, io-in-lib, obj-magic, poly-compare-abstract,
    domain-unsafe-capture). *)

val meta : t list
(** Findings produced by the machinery itself ([parse-error],
    [suppression], [cmt-missing]); never policy-scoped and not
    suppressible. *)

val all : t list
val names : string list
val find : string -> t option
val is_meta : string -> bool

val severity : string -> Finding.severity
(** Default severity for a rule name ([Error] for unknown names). *)

val layer : string -> layer
(** Layer for a rule name ([Ast] for unknown names). *)
