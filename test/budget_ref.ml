(* Test-only reference: a verbatim copy of lib/fault/budget.ml as it stood
   before its charge tables became dense arrays. The differential test in
   test_fault.ml holds the library's Budget to these exact results. Never
   linked into lib/. *)

open Ffault_objects

type t = {
  max_faulty_objects : int;
  max_faults_per_object : int option;
  victims : int list option; (* sorted object ids allowed to fault *)
  counts : (int, int) Hashtbl.t; (* object id -> observable faults charged *)
  max_crashes_per_proc : int;
  crash_counts : (int, int) Hashtbl.t; (* proc -> crash-restarts charged *)
}

let create ?victims ?(max_crashes_per_proc = 0) ~max_faulty_objects ~max_faults_per_object () =
  if max_faulty_objects < 0 then invalid_arg "Budget.create: max_faulty_objects < 0";
  if max_crashes_per_proc < 0 then invalid_arg "Budget.create: max_crashes_per_proc < 0";
  (match max_faults_per_object with
  | Some t when t < 1 -> invalid_arg "Budget.create: max_faults_per_object < 1"
  | _ -> ());
  let victims =
    Option.map
      (fun l ->
        let ids = List.sort_uniq Int.compare (List.map Obj_id.to_int l) in
        if List.length ids > max_faulty_objects then
          invalid_arg "Budget.create: more victims than max_faulty_objects";
        ids)
      victims
  in
  { max_faulty_objects; max_faults_per_object; victims; counts = Hashtbl.create 8;
    max_crashes_per_proc; crash_counts = Hashtbl.create 8 }

let unlimited () =
  { max_faulty_objects = max_int; max_faults_per_object = None; victims = None;
    counts = Hashtbl.create 8; max_crashes_per_proc = 0; crash_counts = Hashtbl.create 8 }

let none () = create ~max_faulty_objects:0 ~max_faults_per_object:None ()

(* Both tables must be copied: an exploration snapshot that aliased
   [crash_counts] would see a crash replayed after restore charged on the
   shared table a second time. *)
let copy b = { b with counts = Hashtbl.copy b.counts; crash_counts = Hashtbl.copy b.crash_counts }

let f b = b.max_faulty_objects
let t_bound b = b.max_faults_per_object
let crash_bound b = b.max_crashes_per_proc

let faults_on b o = Option.value ~default:0 (Hashtbl.find_opt b.counts (Obj_id.to_int o))

let num_faulty b = Hashtbl.length b.counts

let victim_ok b o =
  match b.victims with None -> true | Some ids -> List.mem (Obj_id.to_int o) ids

let can_fault b o =
  victim_ok b o
  &&
  let n = faults_on b o in
  let per_object_ok = match b.max_faults_per_object with None -> true | Some t -> n < t in
  per_object_ok && (n > 0 || num_faulty b < b.max_faulty_objects)

let charge b o =
  if not (can_fault b o) then
    invalid_arg (Fmt.str "Budget.charge: fault on %a exceeds budget" Obj_id.pp o);
  Hashtbl.replace b.counts (Obj_id.to_int o) (faults_on b o + 1)

let crashes_on b proc = Option.value ~default:0 (Hashtbl.find_opt b.crash_counts proc)

let can_crash b ~proc = crashes_on b proc < b.max_crashes_per_proc

let charge_crash b ~proc =
  if not (can_crash b ~proc) then
    invalid_arg (Fmt.str "Budget.charge_crash: crash of proc %d exceeds budget" proc);
  Hashtbl.replace b.crash_counts proc (crashes_on b proc + 1)

let total_crashes b = Hashtbl.fold (fun _ n acc -> acc + n) b.crash_counts 0

let faulty_objects b =
  Hashtbl.fold (fun id _ acc -> id :: acc) b.counts []
  |> List.sort Int.compare
  |> List.map Obj_id.of_int

let total_faults b = Hashtbl.fold (fun _ n acc -> acc + n) b.counts 0

let pp ppf b =
  let t_str = match b.max_faults_per_object with None -> "\xe2\x88\x9e" | Some t -> string_of_int t in
  let f_str = if b.max_faulty_objects = max_int then "\xe2\x88\x9e" else string_of_int b.max_faulty_objects in
  Fmt.pf ppf "budget(f=%s, t=%s; charged %d faults on %d objects)" f_str t_str (total_faults b)
    (num_faulty b);
  if b.max_crashes_per_proc > 0 || total_crashes b > 0 then
    Fmt.pf ppf " (crashes: %d charged, \xe2\x89\xa4%d per proc)" (total_crashes b)
      b.max_crashes_per_proc
