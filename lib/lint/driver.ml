(* Parse every .ml/.mli, run the parsetree rules, merge the typed-tree
   rules from each .ml's fresh cmt (Cmt_loader + Typed_rules), apply
   policy and suppressions, and add the filesystem-level mli-required
   check. *)

type outcome = {
  findings : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
}

let no_outcome = { findings = []; suppressed = [] }

(* ---- parsing ---- *)

let parse_finding ~file loc msg =
  Finding.of_location ~rule:"parse-error" ~severity:(Rule.severity "parse-error") ~file
    loc msg

let with_lexbuf ~file source k =
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf file;
  match k lexbuf with
  | v -> Ok v
  | exception Syntaxerr.Error err ->
      Error (parse_finding ~file (Syntaxerr.location_of_error err) "syntax error")
  | exception Lexer.Error (_, loc) -> Error (parse_finding ~file loc "lexing error")

let parse_impl ~file source = with_lexbuf ~file source Parse.implementation
let parse_intf ~file source = with_lexbuf ~file source Parse.interface

(* ---- linting one source ---- *)

let scoped policy file findings =
  List.filter (fun (f : Finding.t) -> Policy.applies policy ~rule:f.rule ~file) findings

let lint_impl_source ?(policy = Policy.default) ?(typed = []) ~file source =
  match parse_impl ~file source with
  | Error f -> { no_outcome with findings = [ f ] }
  | Ok structure ->
      let raw = Ast_rules.check ~file structure @ typed in
      let sups, sup_errors = Suppress.of_structure ~file structure in
      let raw = scoped policy file raw in
      let findings, suppressed = Suppress.apply sups raw in
      { findings = findings @ sup_errors; suppressed }

let lint_intf_source ?policy:(_ = Policy.default) ~file source =
  match parse_intf ~file source with
  | Error f -> { no_outcome with findings = [ f ] }
  | Ok _ -> no_outcome

(* ---- file collection ---- *)

let skip_dirs = [ "_build"; "_campaigns"; "_opam"; ".git" ]

let is_source f =
  Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"

let collect_files paths =
  let out = ref [] in
  let rec walk path =
    if Sys.file_exists path then
      if Sys.is_directory path then
        if not (List.mem (Filename.basename path) skip_dirs) then
          Array.iter
            (fun entry -> walk (Filename.concat path entry))
            (Sys.readdir path)
        else ()
      else if is_source path then out := path :: !out
  in
  List.iter walk paths;
  List.sort_uniq String.compare !out

(* ---- mli-required (filesystem-level) ---- *)

let mli_required ~policy files =
  List.filter_map
    (fun file ->
      if
        Filename.check_suffix file ".ml"
        && Policy.applies policy ~rule:"mli-required" ~file
        && not (List.mem (file ^ "i") files || Sys.file_exists (file ^ "i"))
      then
        Some
          (Finding.v ~rule:"mli-required" ~severity:(Rule.severity "mli-required")
             ~file ~line:1 ~col:0
             (Fmt.str
                "%s has no interface: add %si so the module's surface is committed \
                 and reviewable"
                (Filename.basename file) (Filename.basename file)))
      else None)
    files

(* ---- the whole run ---- *)

type result = {
  files : int;
  typed_files : int;
  findings : Finding.t list;
  suppressed : (Finding.t * Suppress.t) list;
}

let read_file file =
  match In_channel.with_open_text file In_channel.input_all with
  | source -> Ok source
  | exception Sys_error m -> Error m

let rule_enabled rules (f : Finding.t) =
  match rules with
  | None -> true
  | Some rs -> List.mem f.rule rs || Rule.is_meta f.rule

(* The typed half of one .ml: its findings (merged into the outcome
   pre-policy, so scoping and suppressions treat both passes the same),
   or a cmt-missing finding, so a build regression cannot silently
   shrink coverage. *)
let typed_for_file ~loader ~build_dir file =
  match Cmt_loader.for_source loader file with
  | Cmt_loader.Typed cmt -> Ok (Typed_rules.check ~file cmt)
  | degraded ->
      Error
        (Finding.v ~rule:"cmt-missing" ~severity:(Rule.severity "cmt-missing") ~file
           ~line:1 ~col:0
           (Option.value ~default:"no typedtree"
              (Cmt_loader.describe ~build_dir degraded)))

let run ?rules ?(policy = Policy.default) ?(build_dir = Cmt_loader.default_build_dir)
    paths =
  let files = collect_files paths in
  let loader = Cmt_loader.create ~build_dir () in
  let typed_files = ref 0 in
  let outcomes =
    List.map
      (fun file ->
        let typed_findings =
          if not (Filename.check_suffix file ".ml") then []
          else
            match typed_for_file ~loader ~build_dir file with
            | Ok fs ->
                incr typed_files;
                fs
            | Error missing -> [ missing ]
        in
        match read_file file with
        | Error m ->
            {
              no_outcome with
              findings =
                [
                  Finding.v ~rule:"parse-error" ~severity:Finding.Error ~file ~line:1
                    ~col:0 (Fmt.str "cannot read: %s" m);
                ];
            }
        | Ok source ->
            if Filename.check_suffix file ".ml" then
              lint_impl_source ~policy ~typed:typed_findings ~file source
            else lint_intf_source ~policy ~file source)
      files
  in
  let findings =
    List.concat_map (fun (o : outcome) -> o.findings) outcomes
    @ mli_required ~policy files
  in
  let suppressed = List.concat_map (fun (o : outcome) -> o.suppressed) outcomes in
  {
    files = List.length files;
    typed_files = !typed_files;
    findings = List.sort Finding.compare (List.filter (rule_enabled rules) findings);
    suppressed;
  }
