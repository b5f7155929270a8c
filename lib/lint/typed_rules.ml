(* The Tast_iterator pass behind every identifier rule. It works on
   resolved identities: every [Texp_ident] carries the value description
   of the thing it denotes, and that description's [val_loc] names the
   .mli the value was declared in — the same for [Atomic.set], [A.set]
   after [module A = Atomic], a bare [set] after [open Atomic], and
   [W.set] after [include Atomic]. Matching on (declaration file, value
   name) is therefore alias-proof by construction.

   Like {!Ast_rules}, findings come back unfiltered: the driver applies
   {!Policy} scoping and {!Suppress} afterwards. *)

open Typedtree

(* ---- resolved-identity table: (rule, declaring .mli, value names) ---- *)

let io_stdlib =
  [
    "print_string"; "print_bytes"; "print_int"; "print_char"; "print_float";
    "print_endline"; "print_newline"; "prerr_string"; "prerr_bytes"; "prerr_int";
    "prerr_char"; "prerr_float"; "prerr_endline"; "prerr_newline"; "exit";
  ]

(* Socket-level syscalls: driver-layer territory. Library code that
   opens, accepts or selects on sockets is doing transport work and
   must live behind an allowlisted driver module (lib/dist). *)
let unix_sockets =
  [
    "socket"; "bind"; "listen"; "accept"; "connect"; "select"; "read"; "write";
    "write_substring"; "single_write"; "sendto"; "recvfrom";
  ]

(* rule, declaring interface, names ([None] = every value declared
   there). Reads ([Atomic.get]) and allocation ([Atomic.make]) carry no
   fault semantics and are absent. *)
let ident_table =
  [
    ("raw-atomic", "atomic.mli",
     Some [ "compare_and_set"; "exchange"; "set"; "fetch_and_add"; "incr"; "decr" ]);
    ("nondeterminism", "random.mli", None);
    ("nondeterminism", "sys.mli", Some [ "time" ]);
    ("nondeterminism", "unix.mli", Some [ "gettimeofday"; "time" ]);
    ("nondeterminism", "hashtbl.mli", Some [ "randomize" ]);
    ("io-in-lib", "stdlib.mli", Some io_stdlib);
    ("io-in-lib", "printf.mli", Some [ "printf"; "eprintf" ]);
    ("io-in-lib", "format.mli",
     Some [ "printf"; "eprintf"; "print_string"; "print_newline" ]);
    ("io-in-lib", "fmt.mli", Some [ "pr"; "epr" ]);
    ("io-in-lib", "unix.mli", Some unix_sockets);
    ("obj-magic", "obj.mli", None);
  ]

let ident_message ~rule ~decl name =
  match (rule, decl) with
  | "raw-atomic", _ ->
      Fmt.str
        "raw %s bypasses the injectable faulty-CAS substrate; route the operation \
         through Ffault_runtime.Faulty_cas (or allowlist this file in the lint \
         policy with a justification)"
        name
  | "nondeterminism", "random.mli" ->
      Fmt.str
        "%s draws from the global, seed-unstable PRNG; deterministic code must use \
         Ffault_prng (splittable, seeded per trial)"
        name
  | "nondeterminism", _ ->
      Fmt.str
        "%s is nondeterministic across runs; simulator-reachable code must be a pure \
         function of the seed (journal replay and campaign resume depend on it)"
        name
  | "io-in-lib", "unix.mli" ->
      Fmt.str
        "%s is socket-level IO from library code; transport work belongs in the dist \
         driver layer (Transport/Http), which is allowlisted with a justification"
        name
  | "io-in-lib", _ ->
      Fmt.str
        "%s performs direct terminal IO/exit from library code; return data, or go \
         through Ffault_telemetry / the report layer"
        name
  | _ (* obj-magic *) ->
      Fmt.str
        "%s defeats the type system; if the representation trick is sound, suppress \
         with [@@@@@@%s \"obj-magic\", \"why it is safe\"]"
        name Suppress.attr_name

(* Types that own their comparison semantics: structural compare on them
   is representational, not semantic, and breaks the moment they gain
   closures or mutable internals. Matched on the normalized head path of
   the instantiated type (module aliases local to the file are resolved
   first; "__"-mangled unit names are unmangled). *)
let semantic_types =
  [
    "Value.t"; "History.t";
    (* ops embed Value.t payloads, so structural compare inherits every
       hazard Value.t has *)
    "Op.t";
    (* identity types with their own compare — today ints, but the
       representation is theirs to change *)
    "Obj_id.t"; "Fault_kind.t";
    (* specs carry an int64 seed and kind lists; Spec.equal is the
       semantic (and boxing-aware) comparison *)
    "Spec.t";
    (* a private int whose equal is physical by design — spell it *)
    "Packed.t";
  ]

(* Polymorphic entry points whose first parameter type decides the
   hazard: (declaring interface, name). *)
let poly_compare_fns =
  [
    ("stdlib.mli", "="); ("stdlib.mli", "<>"); ("stdlib.mli", "compare");
    ("hashtbl.mli", "hash"); ("list.mli", "mem");
  ]

(* Mutations of a captured target inside a Domain.spawn closure:
   (declaring interface, name, what to call it). *)
let mutation_fns =
  [
    ("stdlib.mli", ":=", "ref");
    ("stdlib.mli", "incr", "ref");
    ("stdlib.mli", "decr", "ref");
    ("array.mli", "set", "array");
    ("array.mli", "unsafe_set", "array");
    ("array.mli", "fill", "array");
    ("array.mli", "blit", "array");
    ("bytes.mli", "set", "bytes");
    ("bytes.mli", "unsafe_set", "bytes");
  ]

(* ---- resolution helpers ---- *)

let decl_file (vd : Types.value_description) =
  Filename.basename vd.Types.val_loc.Location.loc_start.Lexing.pos_fname

let resolve path vd = (decl_file vd, Path.last path)

(* "Ffault_objects__Value.t" -> "Ffault_objects.Value.t" *)
let unmangle s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if !i + 1 < n && s.[!i] = '_' && s.[!i + 1] = '_' then begin
      Buffer.add_char buf '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let ends_with ~suffix s =
  let ls = String.length s and lx = String.length suffix in
  ls >= lx && String.sub s (ls - lx) lx = suffix

(* ---- the pass ---- *)

let check ~file (cmt : Cmt_format.cmt_infos) =
  match cmt.Cmt_format.cmt_annots with
  | Cmt_format.Implementation structure ->
      let findings = ref [] in
      let emit ?severity ~rule loc message =
        let severity = Option.value severity ~default:(Rule.severity rule) in
        findings := Finding.of_location ~rule ~severity ~file loc message :: !findings
      in

      (* Local module aliases (module V = Ffault_objects.Value), so a
         type written V.t still matches the semantic-type table and an
         identifier written A.set reads as Atomic.set in messages. *)
      let aliases = Hashtbl.create 8 in
      let record_alias (mb : module_binding) =
        match (mb.mb_id, mb.mb_expr.mod_desc) with
        | Some id, Tmod_ident (p, _) -> Hashtbl.replace aliases (Ident.name id) (Path.name p)
        | _ -> ()
      in
      let rec resolve_head depth name =
        if depth > 8 then name
        else
          match String.index_opt name '.' with
          | None -> name
          | Some i -> (
              let head = String.sub name 0 i in
              let rest = String.sub name i (String.length name - i) in
              match Hashtbl.find_opt aliases head with
              | Some target -> resolve_head (depth + 1) (target ^ rest)
              | None -> name)
      in
      let semantic_match path =
        let n = unmangle (resolve_head 0 (Path.name path)) in
        List.find_opt
          (fun t -> n = t || ends_with ~suffix:("." ^ t) n)
          semantic_types
      in
      (* Walk the instantiated type: the hazard may sit in a parameter
         (Value.t list is still compared structurally). *)
      let rec scan_type depth ty =
        if depth <= 0 then None
        else
          match Types.get_desc ty with
          | Types.Tconstr (p, params, _) -> (
              match semantic_match p with
              | Some _ as hit -> hit
              | None -> List.find_map (scan_type (depth - 1)) params)
          | Types.Ttuple ts -> List.find_map (scan_type (depth - 1)) ts
          | _ -> None
      in
      let first_param ty =
        match Types.get_desc ty with
        | Types.Tarrow (_, a, _, _) -> Some a
        | _ -> None
      in

      (* an identifier as a reader would write it: local module aliases
         resolved, "__"-mangled unit names unmangled, [Stdlib.] dropped *)
      let shown path =
        let n = unmangle (resolve_head 0 (Path.name path)) in
        let prefix = "Stdlib." in
        if String.starts_with ~prefix n then
          String.sub n (String.length prefix) (String.length n - String.length prefix)
        else n
      in

      let check_ident (e : expression) path vd =
        let decl = decl_file vd in
        let name = Path.last path in
        (match
           List.find_opt
             (fun (_, d, names) ->
               d = decl
               && match names with None -> true | Some ns -> List.mem name ns)
             ident_table
         with
        | Some (rule, _, _) -> emit ~rule e.exp_loc (ident_message ~rule ~decl (shown path))
        | None -> ());
        (* poly-compare-abstract: a polymorphic comparison entry point
           instantiated (applied or passed) at a semantic type *)
        if List.mem (decl, name) poly_compare_fns then
          match Option.bind (first_param e.exp_type) (scan_type 4) with
          | Some semantic ->
              let owner =
                match String.index_opt semantic '.' with
                | Some i -> String.sub semantic 0 i
                | None -> semantic
              in
              emit ~rule:"poly-compare-abstract" e.exp_loc
                (Fmt.str
                   "polymorphic %s instantiated at %s: structural comparison is \
                    representational and breaks the moment the type gains closures \
                    or mutable internals; use %s.equal/%s.compare (semantic, \
                    committed in the interface)"
                   (shown path) semantic owner owner)
          | None -> ()
      in

      (* domain-unsafe-capture: mutations of captured state inside a
         Domain.spawn closure — the literal [Domain.spawn (fun () -> ...)]
         and the named form [let work () = ... in Domain.spawn work]. The
         named form is resolved through the spawn argument's value
         description, whose [val_loc] points back at the binding site;
         the pre-pass below indexes every function-valued binding in the
         file by that site. *)
      let bound_closures = Hashtbl.create 16 in
      let pos_key (loc : Location.t) =
        (loc.Location.loc_start.Lexing.pos_fname, loc.Location.loc_start.Lexing.pos_cnum)
      in
      let record_closure (vb : value_binding) =
        match vb.vb_expr.exp_desc with
        | Texp_function _ ->
            Hashtbl.replace bound_closures (pos_key vb.vb_pat.pat_loc) vb.vb_expr
        | _ -> ()
      in
      let closure_contains (closure : expression) (loc : Location.t) =
        let c = closure.exp_loc in
        loc.Location.loc_start.Lexing.pos_fname = c.Location.loc_start.Lexing.pos_fname
        && loc.Location.loc_start.Lexing.pos_cnum >= c.Location.loc_start.Lexing.pos_cnum
        && loc.Location.loc_end.Lexing.pos_cnum <= c.Location.loc_end.Lexing.pos_cnum
      in
      let capture_severity =
        if Policy.has_prefix ~prefix:"lib/sim" file then Some Finding.Error else None
      in
      let flag_capture closure kind loc (target : expression) =
        match target.exp_desc with
        | Texp_ident (tp, _, tvd) ->
            if not (closure_contains closure tvd.Types.val_loc) then
              emit ?severity:capture_severity ~rule:"domain-unsafe-capture" loc
                (Fmt.str
                   "%s `%s' is allocated outside this Domain.spawn closure and \
                    mutated inside it: unsynchronized cross-domain mutation is a \
                    data race under the OCaml memory model; use Atomic, keep the \
                    state domain-local, or pass results through Domain.join"
                   kind (Path.last tp))
        | _ -> ()
      in
      let scan_closure (closure : expression) =
        let sub =
          {
            Tast_iterator.default_iterator with
            expr =
              (fun it e ->
                (match e.exp_desc with
                | Texp_apply
                    ( { exp_desc = Texp_ident (p, _, vd); _ },
                      (_, Some target) :: _ ) -> (
                    let key = (decl_file vd, Path.last p) in
                    match
                      List.find_opt (fun (d, n, _) -> (d, n) = key) mutation_fns
                    with
                    | Some (_, _, kind) -> flag_capture closure kind e.exp_loc target
                    | None -> ())
                | Texp_setfield (target, _, lbl, _) ->
                    flag_capture closure
                      (Fmt.str "mutable field `%s' of record" lbl.Types.lbl_name)
                      e.exp_loc target
                | _ -> ());
                Tast_iterator.default_iterator.expr it e);
          }
        in
        sub.expr sub closure
      in
      let check_apply (e : expression) =
        match e.exp_desc with
        | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args)
          when resolve p vd = ("domain.mli", "spawn") -> (
            match
              List.find_map
                (function Asttypes.Nolabel, Some a -> Some a | _ -> None)
                args
            with
            | Some ({ exp_desc = Texp_function _; _ } as closure) ->
                scan_closure closure
            | Some { exp_desc = Texp_ident (_, _, avd); _ } -> (
                (* a closure bound to a name before the spawn does not
                   evade the rule: follow the name to its definition *)
                match Hashtbl.find_opt bound_closures (pos_key avd.Types.val_loc) with
                | Some closure -> scan_closure closure
                | None -> ())
            | _ -> ())
        (* nondeterminism: an omitted optional argument is still listed,
           as a compiler-made [None] at a ghost location, so only a
           [~random] written in the source fires *)
        | Texp_apply ({ exp_desc = Texp_ident (p, _, vd); _ }, args)
          when resolve p vd = ("hashtbl.mli", "create")
               && List.exists
                    (function
                      | ( (Asttypes.Labelled "random" | Asttypes.Optional "random"),
                          Some (a : expression) ) ->
                          not a.exp_loc.Location.loc_ghost
                      | _ -> false)
                    args ->
            emit ~rule:"nondeterminism" e.exp_loc
              "Hashtbl.create ~random:true randomizes iteration order across runs; \
               deterministic code must not depend on randomized hashing"
        | _ -> ()
      in

      let it =
        {
          Tast_iterator.default_iterator with
          module_binding =
            (fun it mb ->
              record_alias mb;
              Tast_iterator.default_iterator.module_binding it mb);
          expr =
            (fun it e ->
              (match e.exp_desc with
              | Texp_ident (path, _, vd) -> check_ident e path vd
              | Texp_apply _ -> check_apply e
              | _ -> ());
              Tast_iterator.default_iterator.expr it e);
        }
      in
      (* module aliases can appear after their uses in the iterator
         order only within mutually recursive modules; a first pass over
         top-level structure items keeps the common case exact *)
      List.iter
        (fun item ->
          match item.str_desc with
          | Tstr_module mb -> record_alias mb
          | Tstr_recmodule mbs -> List.iter record_alias mbs
          | _ -> ())
        structure.str_items;
      (* pre-pass for named closures: a binding may appear after the
         spawn that uses it (mutual recursion) and local lets are below
         the top level, so the whole tree is indexed first *)
      let collect =
        {
          Tast_iterator.default_iterator with
          value_binding =
            (fun it vb ->
              record_closure vb;
              Tast_iterator.default_iterator.value_binding it vb);
        }
      in
      collect.structure collect structure;
      it.structure it structure;
      List.rev !findings
  | _ -> []
