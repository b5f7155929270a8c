(* What a result needs to say about the machine and build it came from,
   so numbers from different hosts are never compared blind. *)

module Json = Ffault_campaign.Json

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* Peak resident set size of this process, from VmHWM (kB). *)
let vmhwm_kb () =
  match read_file "/proc/self/status" with
  | exception Sys_error _ -> 0
  | status ->
      String.split_on_char '\n' status
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] -> (
                 (* "   21340 kB" *)
                 match String.split_on_char ' ' (String.trim v) with
                 | kb :: _ -> int_of_string_opt kb
                 | [] -> None)
             | _ -> None)
      |> Option.value ~default:0

(* The commit of the checkout, read from .git without running git (a
   checkout without .git reports "unknown"). *)
let git_rev () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | exception Sys_error _ -> "unknown"
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_name = String.sub head 5 (String.length head - 5) in
      match trim (read_file (Filename.concat ".git" ref_name)) with
      | rev -> rev
      | exception Sys_error _ -> (
          match read_file ".git/packed-refs" with
          | exception Sys_error _ -> "unknown"
          | packed ->
              String.split_on_char '\n' packed
              |> List.find_map (fun line ->
                     match String.split_on_char ' ' line with
                     | [ rev; name ] when name = ref_name -> Some rev
                     | _ -> None)
              |> Option.value ~default:"unknown"))
  | rev -> rev

let nproc () = Domain.recommended_domain_count ()

let json ~mode =
  Json.Obj
    [
      ("mode", Json.Str mode);
      ("nproc", Json.Int (nproc ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("git_rev", Json.Str (git_rev ()));
      ("unix_time", Json.Float (Unix.time ()));
    ]

let describe () =
  Fmt.str "nproc %d, OCaml %s, rev %s" (nproc ()) Sys.ocaml_version (git_rev ())
