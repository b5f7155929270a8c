(* Planted evasion: a module alias around Obj. [O.magic] has no [Obj.]
   prefix for a surface match to see; its resolved identity is
   obj.mli's. *)

module O = Obj

let coerce x : int = O.magic x
