(** The lint driver: parse sources, run {!Ast_rules}, merge
    {!Typed_rules} from each [.ml]'s fresh cmt (a missing or stale one is
    a [cmt-missing] finding), apply {!Policy} and {!Suppress}, add the
    filesystem-level mli-required check. *)

type outcome = {
  findings : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
}

val parse_impl :
  file:string -> string -> (Parsetree.structure, Finding.t) result
(** Parse an implementation; a syntax/lexing failure becomes a
    [parse-error] finding at its location. *)

val parse_intf :
  file:string -> string -> (Parsetree.signature, Finding.t) result

val lint_impl_source :
  ?policy:Policy.t -> ?typed:Finding.t list -> file:string -> string -> outcome
(** Lint one implementation given as a string — the unit the fixture
    tests drive. [file] determines policy scoping. [typed] merges
    pre-computed typed-layer findings (see {!Typed_rules.check}) before
    policy scoping and suppression, so both passes share the same
    [@@@ffault.lint.allow] machinery. *)

val lint_intf_source : ?policy:Policy.t -> file:string -> string -> outcome
(** Interfaces only get the parse check (no expressions to inspect). *)

val collect_files : string list -> string list
(** Expand files/directories to a sorted list of [.ml]/[.mli] paths,
    skipping [_build], [_campaigns] and [.git]. *)

val mli_required : policy:Policy.t -> string list -> Finding.t list
(** The one filesystem-level rule: every in-scope [.ml] needs a sibling
    [.mli] (checked against the collected list, then the disk). *)

type result = {
  files : int;  (** sources inspected *)
  typed_files : int;  (** .ml files that got the typed pass *)
  findings : Finding.t list;  (** post policy + suppression, sorted *)
  suppressed : (Finding.t * Suppress.t) list;
}

val run :
  ?rules:string list -> ?policy:Policy.t -> ?build_dir:string -> string list -> result
(** Lint the given paths. [rules] restricts reporting to that subset
    (meta rules always pass through). [build_dir] (default
    [_build/default]) is where cmts are looked up. *)
