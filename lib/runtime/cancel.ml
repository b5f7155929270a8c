module Clock = Ffault_telemetry.Clock

type t = {
  state : string option Atomic.t;
  deadline : int; (* absolute monotonic ns; max_int = none *)
  now : unit -> int;
  is_never : bool;
}

exception Cancelled of string

let never =
  { state = Atomic.make None; deadline = max_int; now = (fun () -> 0); is_never = true }

let create ?deadline_ns ?(now = Clock.now_ns) () =
  let deadline =
    match deadline_ns with
    | None -> max_int
    | Some d when d < 0 -> invalid_arg "Cancel.create: deadline_ns < 0"
    | Some d ->
        let n = now () in
        (* saturate: a huge relative deadline must not wrap negative *)
        if n > max_int - d then max_int else n + d
  in
  { state = Atomic.make None; deadline; now; is_never = false }

let after ~seconds =
  if not (Float.is_finite seconds) || seconds < 0.0 then
    invalid_arg "Cancel.after: seconds must be finite and non-negative";
  create ~deadline_ns:(int_of_float (seconds *. 1e9)) ()

let trip t reason = ignore (Atomic.compare_and_set t.state None (Some reason))

let cancel t ~reason =
  if t.is_never then invalid_arg "Cancel.cancel: the shared `never' token";
  trip t reason

let cancelled t =
  match Atomic.get t.state with
  | Some _ -> true
  | None ->
      t.deadline <> max_int
      && t.now () >= t.deadline
      && begin
           trip t "deadline exceeded";
           true
         end

let reason t = if cancelled t then Atomic.get t.state else None

let check t =
  if cancelled t then
    raise (Cancelled (Option.value (Atomic.get t.state) ~default:"cancelled"))
