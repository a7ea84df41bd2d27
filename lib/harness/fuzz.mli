(** Deterministic schedule-fuzz harness.

    Sweeps seeds × workloads × fault plans × engines, runs every offline
    checker (serializability certifier, atomic visibility, exact version
    reads, commuting-sum replay, staleness) on each outcome, and classifies:

    - {e strict} engines (3V, NC3V, replicated 3V, replicated 3V with the
      heartbeat failure detector, sharded 3V with per-shard coordinators,
      global-2PC) must certify clean on every applicable checker — any
      violation is a [failure];
    - {e expected-anomaly} baselines (no-coordination, manual versioning)
      may be flagged; the cycle witness is recorded, demonstrating that the
      certifier has teeth on histories known to be broken.

    Cases are derived purely from [(fuzz_seed, index)] — the same pair
    always replays the same engine, workload, seed and fault plan, so
    [threev_sim fuzz --fuzz-seed S --only I] is an exact reproducer for
    case [I] of any sweep. On a strict failure under faults the harness
    additionally shrinks the fault plan greedily (dropping atoms whose
    removal keeps the case failing) and renders a standalone
    [threev_sim run ...] command line for the shrunk plan. Strict engines
    build, run and check through {!Scenario}; the expected-anomaly
    baselines keep their own anomaly-seeding shapes but share
    {!Scenario.verify}. *)

type engine_kind =
  | E3v
  | E3v_nc
  | E3v_repl
  | E3v_fd
  | E3v_shard
  | E2pc
  | E_nocoord
  | E_manual

type case = {
  index : int;
  engine : engine_kind;
  scenario : Scenario.t;
      (** the run: for strict engines exactly what [threev_sim run]
          replays. Replicated ([E3v_repl], [E3v_fd]) cases are k = 3 with
          at least one crash or heartbeat-loss atom; [E3v_fd] cases pin the
          detector on; [E3v_shard] cases are four replicated shard blocks
          over the synthetic workload with at least one replica crash. *)
  atoms : Scenario.atom list;
      (** the scenario's atoms in generation order — the order the sweep
          log prints and the shrinker walks *)
}

(** Pure derivation: same [(fuzz_seed, index, quick)] → same case. Engines
    rotate with [index mod 8] so every 8 consecutive indices cover the full
    matrix. *)
val case_of_index : fuzz_seed:int -> quick:bool -> int -> case

type check = Scenario.check = {
  check_name : string;
  ok : bool;
  detail : string;
}

type verdict =
  | Clean  (** every applicable checker passed *)
  | Anomaly of string list
      (** expected-anomaly baseline, flagged as hoped; payload includes the
          rendered cycle witness *)
  | Failure of check list  (** the failed checks only *)

type case_report = {
  case : case;
  verdict : verdict;
  committed : int;
  unfinished : int;
  shrunk : Scenario.atom list option;
      (** minimal failing fault-atom subset, when shrinking applied *)
  reproducers : string list;  (** command lines, most precise first *)
}

(** Run one case end to end (drive, settle, check, shrink on failure). *)
val run_case : fuzz_seed:int -> quick:bool -> case -> case_report

type summary = {
  total : int;
  clean : int;
  anomalies_flagged : int;
  failed : int;
  reports : case_report list;  (** in index order *)
}

(** [sweep ()] runs cases [0 .. runs-1] (or exactly [only]). [log] receives
    one human-readable line per case as it completes, plus witness /
    reproducer blocks for interesting cases. *)
val sweep :
  ?runs:int ->
  ?fuzz_seed:int ->
  ?only:int ->
  ?quick:bool ->
  ?log:(string -> unit) ->
  unit ->
  summary

(** [ok s] — no strict-engine failures. *)
val ok : summary -> bool

(** Multi-line sweep summary: totals per verdict, then each failing case
    with its reproducer command lines. *)
val pp_summary : Format.formatter -> summary -> unit
