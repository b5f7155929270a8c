(* Planted evasion: a module alias around Atomic. A surface match on
   the literal path [Atomic.<op>] cannot see [A.set]; the typed pass
   resolves its value description to atomic.mli and reports
   raw-atomic. *)

module A = Atomic

let unlock (flag : bool A.t) = A.set flag false
