(** One simulator run as plain data — the single recipe behind
    [threev_sim run], the schedule fuzzer's strict engines and the bench
    smoke gates. This module alone turns a scenario into a fault plan, an
    engine and a generator ({!run}), a reproducer command line
    ({!to_argv}) and a checked {!verdict}; the fault-spec grammar of the
    run flags lives here next to its printer. *)

type engine = E_3v | E_2pc | E_nocoord | E_manual
type workload = W_hospital | W_calls | W_pos | W_synthetic

(** One fault-plan ingredient, kept atomic so a failing plan can be
    shrunk element-wise and rendered back to [threev_sim run] flags. *)
type atom =
  | Loss of float  (** [--drop-prob] *)
  | Dup of float  (** [--dup-prob] *)
  | Partition of int * int * float * float  (** src, dst, from, until *)
  | Partition_set of int list * float * float * bool
      (** set, from, until, oneway: the set is cut off from the rest of the
          cluster — only its outbound links when [oneway] *)
  | Crash of int * float * float  (** node, at, restart *)
  | Coord_crash of float * float  (** at, restart *)
  | Data_crash of int * float * float
      (** replica group, at, restart: all but one replica fail-stop *)
  | Hb_loss of int * float * float * float
      (** node, from, until, prob: drop the node's outgoing heartbeats *)

type t = {
  engine : engine;
  workload : workload;
  nodes : int;
  replicas : int;
  shards : int;
  rate : float;  (** arrivals per virtual second *)
  duration : float;  (** submission window, virtual seconds *)
  seed : int;  (** simulation + workload RNG seed *)
  period : float;  (** 3V advancement / manual versioning period *)
  nc_ratio : float;
  read_ratio : float;
  fault_seed : int;  (** seed of the dedicated fault RNG *)
  phase_deadline : float;  (** stall watchdog; [infinity] = off *)
  hb_period : float;  (** heartbeat period; [0.] = detector off *)
  hb_timeout : float;
  atoms : atom list;  (** in {!canonical} order *)
}

(** The [threev_sim run] defaults: 3V, hospital, 4 nodes, 400 txn/s for
    2 s, seed 1, no faults. *)
val default : t

(** The [--engine] spellings. *)
val engines : (string * engine) list

(** The [--workload] spellings. *)
val workloads : (string * workload) list

(** The {!workloads} spelling of a workload. *)
val workload_name : workload -> string

(** [strict e] — the engine must certify clean: 3V and global 2PC. *)
val strict : engine -> bool

(** Stable sort into plan order: loss, duplication, heartbeat loss,
    partitions (link and set, as given), crashes, group crashes,
    coordinator crashes. *)
val canonical : atom list -> atom list

(** The flag combinations [threev_sim run] accepts, and a plan that
    builds; the error is one line naming the offending flag. *)
val validate : t -> (unit, string) result

(** The fault plan of the atoms, [None] when there are none; rules in
    {!canonical} order, set partitions cut over the data nodes plus one
    coordinator endpoint per shard.
    @raise Invalid_argument on a malformed atom. *)
val plan : t -> Fault.Plan.t option

(** The 3V configuration: exponential 3 ms latency, periodic
    advancement, the reliable channel on under faults or the detector. *)
val engine_config : t -> Threev.Engine.config

(** The workload generator of the scenario. *)
val generator : t -> Workload.Generator.t

(** The [threev_sim run] arguments that parse back to an equal scenario:
    engine, workload, nodes, rate, duration, seed and read ratio, every
    other knob that differs from {!default}, then the atoms. *)
val to_argv : t -> string list

(** {1 Fault-spec grammar} *)

(** The flag and value reproducing an atom, e.g.
    [("--crash", "2\@0.25:0.7")]. *)
val atom_argv : atom -> string * string

(** {!atom_argv} joined by a space. *)
val atom_flag : atom -> string

(** The fault-spec flags and their value syntax, e.g.
    [("--crash", "NODE\@TIME:RESTART")]. *)
val usages : (string * string) list

(** [parse_atom flag v] parses the value of a {!usages} flag; the error
    is one line embedding the syntax. [PROB] of [--hb-loss] defaults to
    1. *)
val parse_atom : string -> string -> (atom, string) result

(** The first malformed fault spec of an argv ([--flag V] or
    [--flag=V]), as its one-line message. *)
val prevalidate : string array -> string option

(** {1 Running and checking} *)

type run = {
  scenario : t;
  sim : Simul.Sim.t;
  outcome : Runner.outcome;
  engine : Threev.Engine.t option;  (** the 3V engine, when it is one *)
}

(** Build and drive [sc], settling [settle] (default 5) virtual seconds
    after the window. For knobs the command line cannot express, [config]
    adjusts the 3V configuration and [gen] replaces the workload.
    [prepare sim engine] runs once the 3V engine exists and before the
    workload starts: the place to schedule an {!Threev.Engine.advance} or
    inject a pause. What it schedules is ordered exactly as if it were
    called between [Engine.create] and {!Runner.drive} by hand.
    @raise Invalid_argument on a malformed atom, or on [prepare] with an
    engine other than 3V. *)
val run :
  ?config:(Threev.Engine.config -> Threev.Engine.config) ->
  ?gen:Workload.Generator.t ->
  ?settle:float ->
  ?prepare:(Simul.Sim.t -> Threev.Engine.t -> unit) ->
  t ->
  run

(** Two more advancements and 20 virtual seconds, so the stores hold
    every committed update at a visible version. *)
val publish : Simul.Sim.t -> Threev.Engine.t -> unit

(** The newest visible value of a key on the highest-numbered node that
    has it — the replay oracle's view of a published store. *)
val settled_lookup : Threev.Engine.t -> string -> Txn.Value.t option

type check = { check_name : string; ok : bool; detail : string }

type verdict = {
  serializability : Checker.Serializability.report;
  atomicity : Checker.Atomicity.report;
  anomalies : int;
      (** a cycle, unknown writer tags, partial and dirty reads, and — for
          3V — version-read violations and replay mismatches *)
  checks : check list;
      (** serializability, atomicity and, for 3V, version reads and replay *)
}

(** The checker battery. With a (published) 3V [engine] it adds exact
    version reads — fenced by the assigned read vectors and
    {!Threev.Engine.shard_of_node} when sharded — and settled-store
    replay. *)
val certify :
  ?engine:Threev.Engine.t -> (Txn.Spec.t * Txn.Result.t) list -> verdict

(** Publish a 3V run, certify it and, for a {!strict} engine, append a
    [settled] check (no unfinished transaction). *)
val verify : run -> verdict
