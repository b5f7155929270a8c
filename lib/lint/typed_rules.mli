(** The typed-tree rules, as one {!Tast_iterator} pass over a cmt's
    typedtree: every rule that matches an identifier lives here, on its
    resolved identity, so aliases, [open], [include] and eta-reduced
    bindings cannot evade it.

    Covers [raw-atomic], [nondeterminism], [io-in-lib] and [obj-magic]
    (a table of (declaring [.mli], value names) per rule, plus
    [Hashtbl.create] given a [~random] argument), [poly-compare-abstract]
    (polymorphic [=]/[<>]/[compare]/[Hashtbl.hash]/[List.mem]
    instantiated at a lib-owned semantic type, see {!semantic_types}),
    and [domain-unsafe-capture] (a ref, mutable field or non-atomic
    array allocated outside a [Domain.spawn] closure, literal or passed
    by name, and mutated inside it; warning, escalated to error under
    [lib/sim]).

    Findings come back unfiltered like {!Ast_rules.check}: the driver
    scopes and suppresses them like any others. *)

val check : file:string -> Cmt_format.cmt_infos -> Finding.t list
(** Findings in source order; [[]] when the cmt is not an
    implementation (packs, interfaces). [file] is the source path used
    for findings. *)

val semantic_types : string list
(** The seeded table behind [poly-compare-abstract] ([Value.t],
    [History.t], [Op.t], [Obj_id.t], [Fault_kind.t], [Spec.t],
    [Packed.t]), matched on the normalized head of the instantiated type
    with file-local module aliases resolved. *)
