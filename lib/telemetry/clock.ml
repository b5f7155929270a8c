external now_ns : unit -> int = "ffault_monotonic_ns" [@@noalloc]

let ns_to_s ns = float_of_int ns /. 1e9
