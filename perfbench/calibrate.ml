(* A fixed CPU workload that shares no code with ffault: the harness runs
   it before each repetition to measure how fast the host runs at that
   moment, and scales its timings by the result (README.md, "Host
   speed"). It allocates the way a trial does — small blocks, hash
   tables, lists and strings — so that it slows down under the same
   contention. Prints its own wall time in seconds. *)

let rounds = 6

let () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 16 in
  let acc = ref 0 in
  for round = 1 to rounds do
    for i = 0 to 50_000 do
      Hashtbl.replace h (i * 7919 mod 65521) (string_of_int (i + round))
    done;
    let l = List.init 20_000 (fun i -> ((i * 31337) + round) land 0xffff) in
    acc := !acc + List.hd (List.sort compare l) + Hashtbl.length h;
    Hashtbl.reset h
  done;
  let elapsed = Unix.gettimeofday () -. t0 in
  (* the checksum keeps the work from being optimized away *)
  Printf.printf "{\"seconds\":%.9f,\"checksum\":%d}\n" elapsed !acc
