module Json = Ffault_campaign.Json

let exit_code (r : Driver.result) = if r.findings = [] then 0 else 1

(* ---- text ---- *)

let by_rule findings =
  List.fold_left
    (fun acc (f : Finding.t) ->
      match List.assoc_opt f.rule acc with
      | Some n -> (f.rule, n + 1) :: List.remove_assoc f.rule acc
      | None -> (f.rule, 1) :: acc)
    [] findings
  |> List.sort compare

let to_text (r : Driver.result) =
  let buf = Buffer.create 1024 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf s; Buffer.add_char buf '\n') fmt in
  List.iter (fun f -> line "%a" Finding.pp f) r.findings;
  if r.findings <> [] then line "";
  (match by_rule r.findings with
  | [] -> ()
  | counts ->
      line "findings by rule: %s"
        (String.concat ", " (List.map (fun (rule, n) -> Fmt.str "%s=%d" rule n) counts)));
  line "%d file%s checked (%d typed): %d finding%s, %d suppressed" r.files
    (if r.files = 1 then "" else "s")
    r.typed_files (List.length r.findings)
    (if List.length r.findings = 1 then "" else "s")
    (List.length r.suppressed);
  Buffer.contents buf

(* ---- json ---- *)

let finding_to_json ?(extra = []) (f : Finding.t) =
  Json.Obj
    ([
       ("rule", Json.Str f.rule);
       ("layer", Json.Str (Rule.layer_to_string (Rule.layer f.rule)));
       ("severity", Json.Str (Finding.severity_to_string f.severity));
       ("file", Json.Str (Policy.normalize f.file));
       ("line", Json.Int f.line);
       ("col", Json.Int f.col);
       ("message", Json.Str f.message);
     ]
    @ extra)

let to_json (r : Driver.result) =
  Json.Obj
    [
      ("version", Json.Int 2);
      ("files", Json.Int r.files);
      ("typed_files", Json.Int r.typed_files);
      ("findings", Json.List (List.map finding_to_json r.findings));
      ( "suppressed",
        Json.List
          (List.map
             (fun ((f : Finding.t), (s : Suppress.t)) ->
               finding_to_json
                 ~extra:[ ("justification", Json.Str s.Suppress.justification) ]
                 f)
             r.suppressed) );
      ( "summary",
        Json.Obj
          [
            ("findings", Json.Int (List.length r.findings));
            ("suppressed", Json.Int (List.length r.suppressed));
            ( "by_rule",
              Json.Obj (List.map (fun (rule, n) -> (rule, Json.Int n)) (by_rule r.findings))
            );
          ] );
    ]
