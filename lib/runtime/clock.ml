type t = { now_ns : unit -> int }

let monotonic = { now_ns = Ffault_telemetry.Clock.now_ns }
let now_ns t = t.now_ns ()
let now_s t = float_of_int (t.now_ns ()) /. 1e9

module Virtual = struct
  type t = { mutable at : int }

  let create ?(start_ns = 0) () = { at = start_ns }
  let clock v = { now_ns = (fun () -> v.at) }
  let now_ns v = v.at

  let advance v ~ns =
    if ns < 0 then invalid_arg "Clock.Virtual.advance: negative step";
    v.at <- v.at + ns

  let set v ~ns =
    if ns < v.at then invalid_arg "Clock.Virtual.set: time went backwards";
    v.at <- ns
end
