module Metrics = Ffault_telemetry.Metrics

let m_quarantined = Metrics.counter "supervise.quarantined"

type t = { threshold : int; strikes : int Atomic.t array }

let create ?(threshold = 3) ~cells () =
  if threshold < 1 then invalid_arg "Quarantine.create: threshold < 1";
  if cells < 0 then invalid_arg "Quarantine.create: cells < 0";
  { threshold; strikes = Array.init cells (fun _ -> Atomic.make 0) }

let strike t ~cell =
  let after = Atomic.fetch_and_add t.strikes.(cell) 1 + 1 in
  (* Exactly one racing striker observes the crossing count. *)
  if after = t.threshold then Metrics.incr m_quarantined;
  if after >= t.threshold then `Degraded else `Active

let strikes t ~cell = Atomic.get t.strikes.(cell)
let degraded t ~cell = strikes t ~cell >= t.threshold

let degraded_cells t =
  let acc = ref [] in
  for c = Array.length t.strikes - 1 downto 0 do
    if degraded t ~cell:c then acc := c :: !acc
  done;
  !acc
