(* One use of every identifier the identifier rules match (raw-atomic,
   nondeterminism, io-in-lib, obj-magic), one per line, then the
   negative controls. test/test_lint.ml maps this file into lib/ and
   asserts each line's finding; the lines are found by their text, so
   their order is free but each must stay unique. *)

let _ = Atomic.compare_and_set
let _ = Atomic.exchange
let _ = Atomic.set
let _ = Atomic.fetch_and_add
let _ = Atomic.incr
let _ = Atomic.decr
let _ = Stdlib.Atomic.set
let _ = Sys.time
let _ = Unix.gettimeofday
let _ = Unix.time
let _ = Hashtbl.randomize
let _ = Random.self_init
let _ = Random.int
let _ = Random.State.make
let _ = Hashtbl.create ~random:true 8
let _ = print_string
let _ = print_bytes
let _ = print_int
let _ = print_char
let _ = print_float
let _ = print_endline
let _ = print_newline
let _ = prerr_string
let _ = prerr_bytes
let _ = prerr_int
let _ = prerr_char
let _ = prerr_float
let _ = prerr_endline
let _ = prerr_newline
let _ = exit
let _ = Printf.printf
let _ = Printf.eprintf
let _ = Format.printf
let _ = Format.eprintf
let _ = Format.print_string
let _ = Format.print_newline
let _ = Fmt.pr
let _ = Fmt.epr
let _ = Unix.socket
let _ = Unix.bind
let _ = Unix.listen
let _ = Unix.accept
let _ = Unix.connect
let _ = Unix.select
let _ = Unix.read
let _ = Unix.write
let _ = Unix.write_substring
let _ = Unix.single_write
let _ = Unix.sendto
let _ = Unix.recvfrom
let _ = Obj.magic
let _ = Obj.repr

(* negative controls: none of these is a finding *)
let _ = Atomic.get
let _ = Atomic.make
let _ = Fmt.pf
let _ = Hashtbl.create 8
let _ = Ffault_prng.Splitmix.next_int
