open Ffault_objects

(* Charges live in dense arrays indexed by object id and process id,
   grown on first charge past their end: [can_fault] runs on every engine
   step, and an array read is what keeps that probe cheap. *)
type t = {
  max_faulty_objects : int;
  max_faults_per_object : int option;
  victims : int list option; (* sorted object ids allowed to fault *)
  mutable counts : int array; (* object id -> observable faults charged *)
  mutable num_faulty : int; (* objects with a nonzero count *)
  max_crashes_per_proc : int;
  mutable crash_counts : int array; (* proc -> crash-restarts charged *)
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
  { max_faulty_objects; max_faults_per_object; victims; counts = [||]; num_faulty = 0;
    max_crashes_per_proc; crash_counts = [||] }

let unlimited () =
  { max_faulty_objects = max_int; max_faults_per_object = None; victims = None;
    counts = [||]; num_faulty = 0; max_crashes_per_proc = 0; crash_counts = [||] }

let none () = create ~max_faulty_objects:0 ~max_faults_per_object:None ()

(* Both arrays must be copied: an exploration snapshot that aliased
   [crash_counts] would see a crash replayed after restore charged on the
   shared array a second time. *)
let copy b = { b with counts = Array.copy b.counts; crash_counts = Array.copy b.crash_counts }

let f b = b.max_faulty_objects
let t_bound b = b.max_faults_per_object
let crash_bound b = b.max_crashes_per_proc

let count a i = if i < Array.length a then a.(i) else 0

(* [a] with room for index [i], at least doubled so that charging
   ascending ids grows it O(log n) times. *)
let grown a i =
  if i < Array.length a then a
  else begin
    let a' = Array.make (max (i + 1) (2 * Array.length a)) 0 in
    Array.blit a 0 a' 0 (Array.length a);
    a'
  end

let faults_on b o = count b.counts (Obj_id.to_int o)

let victim_ok b o =
  match b.victims with None -> true | Some ids -> List.mem (Obj_id.to_int o) ids

let can_fault b o =
  victim_ok b o
  &&
  let n = faults_on b o in
  let per_object_ok = match b.max_faults_per_object with None -> true | Some t -> n < t in
  per_object_ok && (n > 0 || b.num_faulty < b.max_faulty_objects)

let charge b o =
  if not (can_fault b o) then
    invalid_arg (Fmt.str "Budget.charge: fault on %a exceeds budget" Obj_id.pp o);
  let i = Obj_id.to_int o in
  b.counts <- grown b.counts i;
  if b.counts.(i) = 0 then b.num_faulty <- b.num_faulty + 1;
  b.counts.(i) <- b.counts.(i) + 1

let crashes_on b proc = if proc < 0 then 0 else count b.crash_counts proc

let can_crash b ~proc = crashes_on b proc < b.max_crashes_per_proc

let charge_crash b ~proc =
  if proc < 0 then invalid_arg (Fmt.str "Budget.charge_crash: negative proc %d" proc);
  if not (can_crash b ~proc) then
    invalid_arg (Fmt.str "Budget.charge_crash: crash of proc %d exceeds budget" proc);
  b.crash_counts <- grown b.crash_counts proc;
  b.crash_counts.(proc) <- b.crash_counts.(proc) + 1

let total_crashes b = Array.fold_left ( + ) 0 b.crash_counts

let faulty_objects b =
  let acc = ref [] in
  for i = Array.length b.counts - 1 downto 0 do
    if b.counts.(i) > 0 then acc := Obj_id.of_int i :: !acc
  done;
  !acc

let total_faults b = Array.fold_left ( + ) 0 b.counts

let pp ppf b =
  let t_str = match b.max_faults_per_object with None -> "\xe2\x88\x9e" | Some t -> string_of_int t in
  let f_str = if b.max_faulty_objects = max_int then "\xe2\x88\x9e" else string_of_int b.max_faulty_objects in
  Fmt.pf ppf "budget(f=%s, t=%s; charged %d faults on %d objects)" f_str t_str (total_faults b)
    b.num_faulty;
  if b.max_crashes_per_proc > 0 || total_crashes b > 0 then
    Fmt.pf ppf " (crashes: %d charged, \xe2\x89\xa4%d per proc)" (total_crashes b)
      b.max_crashes_per_proc
