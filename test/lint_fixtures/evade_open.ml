(* Planted evasion: [open Random]. The surface identifier is a bare
   [int] — no module path for a surface match to see — but its
   resolved identity is random.mli's. *)

open Random

let roll () = int 6
