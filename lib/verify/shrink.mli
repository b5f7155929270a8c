(** Witness minimization.

    A DFS witness is a decision vector; smaller vectors (shorter, and with
    smaller entries) replay into shorter, more readable violation traces —
    entries beyond the vector take the default choice (lowest-numbered
    process, correct outcome), and entry 0 is the default at its point.
    The shrinker greedily (1) drops trailing entries, (2) zeroes
    individual entries, and (3) decrements entries, re-replaying after
    each candidate change and keeping it only if the violation
    persists. The result is locally minimal: no single such edit
    preserves the violation. Candidates replay untraced
    ([Dfs.replay ~trace:false]): their verdict reads no trace. *)

val witness : Consensus_check.setup -> int array -> int array
(** [witness setup decisions] assumes [decisions] replays to a violating
    report (raises [Invalid_argument] otherwise) and returns a locally
    minimal violating vector. *)

val witness_report :
  Consensus_check.setup -> int array -> int array * Consensus_check.report
(** The shrunk vector together with its replayed report, traced. *)
