module Clock = Ffault_telemetry.Clock

type t = {
  tripped : bool Atomic.t;
  deadline : int; (* absolute monotonic ns; max_int = none *)
  now : unit -> int;
}

exception Cancelled of string

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
  { tripped = Atomic.make false; deadline; now }

let never = create ()

let after ~seconds =
  if not (Float.is_finite seconds) || seconds < 0.0 then
    invalid_arg "Cancel.after: seconds must be finite and non-negative";
  create ~deadline_ns:(int_of_float (seconds *. 1e9)) ()

let cancelled t =
  Atomic.get t.tripped
  || (t.deadline <> max_int
     && t.now () >= t.deadline
     && begin
          Atomic.set t.tripped true;
          true
        end)

let check t = if cancelled t then raise (Cancelled "deadline exceeded")
