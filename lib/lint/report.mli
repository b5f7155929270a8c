(** Human and machine reporters over a lint run. *)

val exit_code : Driver.result -> int
(** 0 when there are no findings, 1 otherwise. Suppressed findings do
    not fail. *)

val to_text : Driver.result -> string
(** file:line:col lines (grep-able) plus a one-line summary. *)

val to_json : Driver.result -> Ffault_campaign.Json.t
(** [{version = 2; files; typed_files; findings; suppressed; summary}] —
    the shape CI archives as lint.json. Findings carry a ["layer"]
    ([ast]/[typed]/[fs]) naming the pass that produced them. *)
