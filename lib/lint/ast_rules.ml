(* The Ast_iterator pass behind the three shape rules (toplevel-mutable,
   catch-all, effect-discipline). Findings come back unfiltered: the
   driver applies {!Policy} scoping and {!Suppress} afterwards, so this
   module stays a pure function of the parsetree. *)

open Parsetree

(* Longident.flatten raises on functor applications; be total. *)
let rec flatten = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (l, s) -> flatten l @ [ s ]
  | Longident.Lapply _ -> []

(* [Stdlib.Hashtbl.create] and [Hashtbl.create] are the same function. *)
let strip_stdlib = function "Stdlib" :: rest -> rest | path -> path

(* ---- rule table ---- *)

(* Constructors whose result at module level is cross-run shared state. *)
let mutable_makers =
  [
    [ "ref" ];
    [ "Hashtbl"; "create" ];
    [ "Atomic"; "make" ];
    [ "Queue"; "create" ];
    [ "Stack"; "create" ];
    [ "Buffer"; "create" ];
    [ "Bytes"; "create" ]; [ "Bytes"; "make" ];
    [ "Array"; "make" ]; [ "Array"; "init" ]; [ "Array"; "create_float" ];
    [ "Mutex"; "create" ]; [ "Condition"; "create" ];
  ]

(* ---- the pass ---- *)

let check ~file structure =
  let findings = ref [] in
  let emit ~rule loc message =
    findings :=
      Finding.of_location ~rule ~severity:(Rule.severity rule) ~file loc message
      :: !findings
  in
  let dotted path = String.concat "." path in

  (* effect-discipline, first half: [Effect.Deep.try_with] installs no
     retc/exnc, so a returning or raising body escapes the scheduler *)
  let check_ident loc lid =
    match strip_stdlib (flatten lid) with
    | [ "Effect"; "Deep"; "try_with" ] | [ "Deep"; "try_with" ] ->
        emit ~rule:"effect-discipline" loc
          "Effect.Deep.try_with installs only an effect handler: a body that returns or \
           raises bypasses the scheduler's Step/Decide bookkeeping (no Decided/Crashed \
           status is recorded); use match_with with retc, exnc and effc all handling \
           the protocol"
    | _ -> ()
  in

  (* toplevel-mutable: walk a binding's RHS, stopping at lambdas (a
     function body only allocates per call) and [lazy]. *)
  let rec rhs_mutable e =
    match e.pexp_desc with
    | Pexp_fun _ | Pexp_function _ | Pexp_lazy _ -> None
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; pexp_loc; _ }, args) -> (
        let path = strip_stdlib (flatten txt) in
        if List.mem path mutable_makers then Some (pexp_loc, dotted path)
        else
          List.find_map (fun (_, a) -> rhs_mutable a) args)
    | Pexp_tuple es | Pexp_array es ->
        List.find_map rhs_mutable es
    | Pexp_record (fields, base) -> (
        match List.find_map (fun (_, v) -> rhs_mutable v) fields with
        | Some _ as r -> r
        | None -> Option.bind base rhs_mutable)
    | Pexp_construct (_, Some a) | Pexp_variant (_, Some a) -> rhs_mutable a
    | Pexp_let (_, vbs, body) -> (
        match List.find_map (fun vb -> rhs_mutable vb.pvb_expr) vbs with
        | Some _ as r -> r
        | None -> rhs_mutable body)
    | Pexp_sequence (a, b) -> (
        match rhs_mutable a with Some _ as r -> r | None -> rhs_mutable b)
    | Pexp_constraint (a, _) | Pexp_coerce (a, _, _) | Pexp_open (_, a) ->
        rhs_mutable a
    | _ -> None
  in

  let check_toplevel_binding vb =
    match rhs_mutable vb.pvb_expr with
    | None -> ()
    | Some (loc, maker) ->
        emit ~rule:"toplevel-mutable" loc
          (Fmt.str
             "module-level %s creates mutable state shared across every trial in the \
              process; allocate it per run (pass it in), or allowlist the module with \
              a justification"
             maker)
  in

  let rec pat_catch_all p =
    match p.ppat_desc with
    | Ppat_any -> true
    | Ppat_alias (p, _) -> pat_catch_all p
    | Ppat_or (a, b) -> pat_catch_all a || pat_catch_all b
    | _ -> false
  in
  let check_cases ~what cases =
    List.iter
      (fun c ->
        let wild =
          match (what, c.pc_lhs.ppat_desc) with
          | `Try, _ -> pat_catch_all c.pc_lhs
          | `Match, Ppat_exception p -> pat_catch_all p
          | `Match, _ -> false
        in
        if wild && c.pc_guard = None then
          emit ~rule:"catch-all" c.pc_lhs.ppat_loc
            "wildcard exception handler swallows every exception, including budget \
             exhaustion and cancellation; match the exceptions you mean to handle (or \
             bind and re-raise the rest)")
      cases
  in

  (* effect-discipline, second half: a [match_with] handler record whose
     [exnc] merely re-raises drops the crash half of the Step/Decide
     protocol — a raising process must become a recorded status, not
     unwind the scheduler. Syntactic: catches [exnc = raise] and
     [exnc = (fun e -> raise e)]. *)
  let check_handler_record fields =
    List.iter
      (fun ((lbl : Longident.t Location.loc), (v : expression)) ->
        let reraises =
          match v.pexp_desc with
          | Pexp_ident { txt = Longident.Lident "raise"; _ } -> true
          | Pexp_fun
              ( _, _,
                { ppat_desc = Ppat_var { txt = x; _ }; _ },
                {
                  pexp_desc =
                    Pexp_apply
                      ( { pexp_desc = Pexp_ident { txt = Longident.Lident "raise"; _ }; _ },
                        [ (_, { pexp_desc = Pexp_ident { txt = Longident.Lident y; _ }; _ }) ] );
                  _;
                } ) ->
              x = y
          | _ -> false
        in
        let is_exnc =
          match List.rev (flatten lbl.Location.txt) with
          | "exnc" :: _ -> true
          | _ -> false
        in
        if is_exnc && reraises then
          emit ~rule:"effect-discipline" v.pexp_loc
            "this handler's exnc re-raises instead of recording the process as \
             crashed; a raising body must land in the scheduler's status array \
             (the Step/Decide protocol), not unwind through it")
      fields
  in

  let it =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> check_ident e.pexp_loc txt
          | Pexp_try (_, cases) -> check_cases ~what:`Try cases
          | Pexp_match (_, cases) -> check_cases ~what:`Match cases
          | Pexp_record (fields, _) -> check_handler_record fields
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
      structure_item =
        (fun it item ->
          (match item.pstr_desc with
          | Pstr_value (_, vbs) -> List.iter check_toplevel_binding vbs
          | _ -> ());
          Ast_iterator.default_iterator.structure_item it item);
    }
  in
  it.structure it structure;
  List.rev !findings
