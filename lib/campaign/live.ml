module Clock = Ffault_telemetry.Clock

type t = {
  total : int;
  n_cells : int;
  started_ns : int;
  executed : int Atomic.t;
  skipped : int Atomic.t;
  failures : int Atomic.t;
  cell_done : int Atomic.t array;
  cell_fail : int Atomic.t array;
  trials_per_cell : int;
}

let create spec =
  let n_cells = Grid.n_cells spec in
  {
    total = Grid.total_trials spec;
    n_cells;
    started_ns = Clock.now_ns ();
    executed = Atomic.make 0;
    skipped = Atomic.make 0;
    failures = Atomic.make 0;
    cell_done = Array.init n_cells (fun _ -> Atomic.make 0);
    cell_fail = Array.init n_cells (fun _ -> Atomic.make 0);
    trials_per_cell = spec.Spec.trials;
  }

(* A failure is a [Violation], as the pool's summary and the report
   count it: a timeout or a quarantined trial says nothing about the
   protocol. *)
let on_record t (r : Journal.record) =
  Atomic.incr t.executed;
  let failed = r.Journal.outcome = Journal.Violation in
  if failed then Atomic.incr t.failures;
  let cell = r.Journal.trial / t.trials_per_cell in
  if cell >= 0 && cell < t.n_cells then begin
    Atomic.incr t.cell_done.(cell);
    if failed then Atomic.incr t.cell_fail.(cell)
  end

let on_skip t = Atomic.incr t.skipped

let heat_width = 48

let heat_glyph ~done_ ~fail =
  if done_ = 0 then '?'
  else if fail = 0 then '.'
  else
    let decile =
      int_of_float (Float.of_int fail /. Float.of_int done_ *. 10.0)
    in
    Char.chr (Char.code '0' + max 1 (min 9 decile))

let heat_line t =
  let width = min t.n_cells heat_width in
  if width = 0 then ""
  else
    String.init width (fun i ->
        (* glyph i aggregates cells [lo, hi) — one cell per glyph until
           the grid outgrows the line *)
        let lo = i * t.n_cells / width in
        let hi = max (lo + 1) ((i + 1) * t.n_cells / width) in
        let done_ = ref 0 and fail = ref 0 in
        for c = lo to hi - 1 do
          done_ := !done_ + Atomic.get t.cell_done.(c);
          fail := !fail + Atomic.get t.cell_fail.(c)
        done;
        heat_glyph ~done_:!done_ ~fail:!fail)

let pp_eta ppf seconds =
  (* cap at 99:59:59 — beyond that the extrapolation is noise anyway *)
  if Float.is_nan seconds || seconds > 359_999.0 then Fmt.string ppf "--:--"
  else
    let s = int_of_float seconds in
    if s >= 3600 then Fmt.pf ppf "%d:%02d:%02d" (s / 3600) (s / 60 mod 60) (s mod 60)
    else Fmt.pf ppf "%d:%02d" (s / 60) (s mod 60)

let render t =
  let executed = Atomic.get t.executed in
  let skipped = Atomic.get t.skipped in
  let failures = Atomic.get t.failures in
  let done_total = executed + skipped in
  let elapsed_s = Clock.ns_to_s (Clock.now_ns () - t.started_ns) in
  let rate = Pool.trials_rate ~executed ~wall_s:elapsed_s in
  let remaining = max 0 (t.total - done_total) in
  let percent =
    if t.total = 0 then 100.0
    else 100.0 *. Float.of_int done_total /. Float.of_int t.total
  in
  let fail_rate =
    if executed = 0 then 0.0 else Float.of_int failures /. Float.of_int executed
  in
  let eta =
    if remaining = 0 then Some 0.0
    else if rate > 0.0 then Some (Float.of_int remaining /. rate)
    else None
  in
  Fmt.str "%d/%d trials (%.1f%%) | %.0f trials/s | ETA %a | fail %.2f%% (%d) | %s"
    done_total t.total percent rate
    (fun ppf -> function
      | Some s -> pp_eta ppf s
      | None -> Fmt.string ppf "--:--")
    eta (100.0 *. fail_rate) failures (heat_line t)
