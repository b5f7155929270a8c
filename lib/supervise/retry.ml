type policy = { max_retries : int; base_backoff_ns : int; max_backoff_ns : int }

let default_policy =
  { max_retries = 2; base_backoff_ns = 1_000_000; max_backoff_ns = 100_000_000 }

let policy ?(max_retries = default_policy.max_retries)
    ?(base_backoff_ns = default_policy.base_backoff_ns)
    ?(max_backoff_ns = default_policy.max_backoff_ns) () =
  if max_retries < 0 then invalid_arg "Retry.policy: max_retries < 0";
  if base_backoff_ns < 1 || max_backoff_ns < 1 then
    invalid_arg "Retry.policy: backoff bounds must be positive";
  { max_retries; base_backoff_ns; max_backoff_ns }

let backoff_ns p ~seed ~attempt =
  if attempt < 1 then invalid_arg "Retry.backoff_ns: attempt < 1";
  let shift = min (attempt - 1) 32 in
  let nominal =
    if p.base_backoff_ns > p.max_backoff_ns asr shift then p.max_backoff_ns
    else p.base_backoff_ns lsl shift
  in
  (* Perturb to [0.5x, 1.5x): the low 30 hash bits give a uniform
     fraction, deterministic in (seed, attempt). *)
  let h = Ffault_prng.Splitmix.hash (Int64.add seed (Int64.of_int (0x9E37 + attempt))) in
  let frac = Int64.to_int (Int64.logand h 0x3FFF_FFFFL) in
  let perturbed =
    int_of_float (float_of_int nominal *. (0.5 +. (float_of_int frac /. 1073741824.0)))
  in
  min p.max_backoff_ns (max 1 perturbed)
