(* The five benchmark workloads (README.md says why each exists). A
   workload is a function of its seed and a size: [Full] is what a timed
   run repeats, about 1-2 s per repetition on a 2-CPU host; [Smoke] is
   about 1/100 of the sizes in README.md, for the [--smoke] check. *)

module Spec = Ffault_campaign.Spec
module Persistence = Ffault_recover.Persistence
module Netsim = Ffault_netsim

type t = Grid_1dom | Grid_2dom | Faulty_2dom | Dist_2w | Netsim_sweep

let all = [ Grid_1dom; Grid_2dom; Faulty_2dom; Dist_2w; Netsim_sweep ]

let name = function
  | Grid_1dom -> "grid-1dom"
  | Grid_2dom -> "grid-2dom"
  | Faulty_2dom -> "faulty-2dom"
  | Dist_2w -> "dist-2w"
  | Netsim_sweep -> "netsim-sweep"

let of_name s = List.find_opt (fun w -> name w = s) all

type size = Full | Smoke

(* Where runs keep their journals, sockets and traces, relative to the
   working directory (the root of the checkout). *)
let work_dir = ".perfbench"

(* What one repetition executes. *)
type plan =
  | Local of (Spec.t * int) list
      (** campaigns run one after another in one process, each with its
          domain count *)
  | Dist of Spec.t  (** one campaign served to two single-domain worker processes *)
  | Netsim of { config : Netsim.Sim.config; schedules : int }

(* Deep fig3 cells: up to ~200 operations and ~640 engine steps a
   trial, so the engine and the checker dominate. *)
let grid ~trials ~seed =
  Spec.v ~name:"grid" ~protocol:"fig3" ~f:[ 1; 2; 3 ] ~t:[ Some 1; Some 2 ] ~n:[ 2; 3; 4 ]
    ~rates:[ 0.3; 0.6 ] ~trials ~seed ()

let grid_spec ~size ~seed = grid ~trials:(match size with Full -> 600 | Smoke -> 20) ~seed

(* Tiny trials whose records carry witnesses and crash fields: journal
   encoding, shrinking, violation rendering, crash menus and per-trial
   pool overhead dominate. *)
let faulty_specs ~trials ~seed =
  let crash ~name ~protocol ~n =
    Spec.v ~name ~protocol ~n ~crashes:[ 1; 2 ] ~crash_rates:[ 0.2; 0.4 ]
      ~persistence:[ Persistence.Persist_all; Persistence.Persist_lossy ]
      ~trials ~seed ()
  in
  [
    Spec.v ~name:"herlihy" ~protocol:"herlihy" ~f:[ 1; 2 ] ~n:[ 2; 3; 4; 5 ]
      ~rates:[ 0.1; 0.3; 0.5; 0.7; 0.9 ] ~trials ~seed ();
    crash ~name:"naive-tas" ~protocol:"naive-tas" ~n:[ 2 ];
    crash ~name:"rec-cas" ~protocol:"rec-cas" ~n:[ 2; 3 ];
  ]

let netsim_schedules = function Full -> 250 | Smoke -> 10

let plan w ~size ~seed =
  match w with
  | Grid_1dom -> Local [ (grid_spec ~size ~seed, 1) ]
  | Grid_2dom -> Local [ (grid_spec ~size ~seed, 2) ]
  | Faulty_2dom ->
      let trials = match size with Full -> 1500 | Smoke -> 60 in
      Local (List.map (fun s -> (s, 2)) (faulty_specs ~trials ~seed))
  | Dist_2w -> Dist (grid_spec ~size ~seed)
  | Netsim_sweep ->
      Netsim { config = Netsim.Sim.config (); schedules = netsim_schedules size }

(* Workloads whose records must equal grid-1dom's for the same seed:
   the domain count and the distribution change scheduling, never
   outcomes. *)
let same_records_as_grid_1dom = function
  | Grid_1dom | Grid_2dom | Dist_2w -> true
  | Faulty_2dom | Netsim_sweep -> false
