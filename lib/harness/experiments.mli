(** The experiment registry: one entry per table/figure/claim reproduced.

    Each experiment renders its results as markdown tables (via
    {!Stats.Table}) plus explanatory notes; [bench/main.exe] runs them all
    and [bin/threev_sim.exe] runs them individually. [quick] shrinks sweeps
    and durations for CI-speed runs. See DESIGN.md §3 for the experiment ↔
    paper mapping and EXPERIMENTS.md for recorded outputs. *)

type t = {
  id : string;  (** "t1", "f1", "f2", "e1" .. "e15", "a1" .. "a4" *)
  title : string;
  paper_ref : string;  (** which part of the paper this reproduces *)
  run : quick:bool -> string;  (** rendered report *)
}

(** All experiments, in presentation order (t1, f1, f2, e1..e15, a1..a4). *)
val all : t list

(** Look an experiment up by id (case-insensitive). *)
val find : string -> t option

(** [smoke ()] is the CI gate: the Table 1 scripted replay, a tiny E11
    (2 nodes, 5% message loss + duplication, reliable channel on), and a
    sub-second coord-smoke (one advancement with a mid-flight coordinator
    crash that must recover from the WAL), in well under ten seconds.
    Returns [(all_passed, report)]. *)
val smoke : unit -> bool * string
