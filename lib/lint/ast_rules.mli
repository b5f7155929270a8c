(** The shape rules, as one {!Ast_iterator} pass.

    Covers toplevel-mutable, catch-all and effect-discipline: rules about
    the shape of a binding, a handler or a record, not about which
    identifier is called (those live in {!Typed_rules}). Returns every
    match unfiltered — the driver applies {!Policy} scoping and
    {!Suppress} afterwards, keeping this a pure function of the
    parsetree. *)

val check : file:string -> Parsetree.structure -> Finding.t list
(** Findings in source order. *)
