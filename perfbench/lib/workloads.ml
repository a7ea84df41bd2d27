(* The three benchmark workloads. All use the synthetic recording workload
   (Zipf 0.5 keys, 50 keys per node) over exponential 2 ms links, driven
   open-loop by [Harness.Runner]'s single Poisson client. Why each exists is
   recorded in perfbench/README.md. *)

module Sim = Simul.Sim
module Engine = Threev.Engine

type t = {
  name : string;
  nodes : int;
  shards : int;
  replicas : int;
  rate_per_node : float;  (** txn per simulated second per node *)
  read_ratio : float;
  fanout : int;
  period : float;  (** periodic advancement cadence, simulated seconds *)
  duration : float;  (** submission window, simulated seconds *)
  settle : float;
  faults : bool;
      (** reliable channel with 2% loss, failure detector, watchdog and one
          replica crash-restart *)
}

let steady =
  {
    name = "steady";
    nodes = 128;
    shards = 1;
    replicas = 1;
    rate_per_node = 150.;
    read_ratio = 0.3;
    fanout = 2;
    period = 0.25;
    duration = 3.0;
    settle = 1.0;
    faults = false;
  }

let advance =
  {
    name = "advance";
    nodes = 512;
    shards = 1;
    replicas = 1;
    rate_per_node = 37.5;
    read_ratio = 0.3;
    fanout = 2;
    period = 0.05;
    duration = 3.0;
    settle = 0.75;
    faults = false;
  }

let faults =
  {
    name = "faults";
    nodes = 48;
    shards = 4;
    replicas = 3;
    rate_per_node = 100.;
    read_ratio = 0.6;
    fanout = 3;
    period = 0.2;
    duration = 4.0;
    settle = 3.0;
    faults = true;
  }

let all = [ steady; advance; faults ]
let find name = List.find_opt (fun w -> w.name = name) all
let rate w = w.rate_per_node *. float_of_int w.nodes

(* The replica crash of [faults]: one member of replica group 0 is down
   for 0.2 simulated seconds in the middle of the submission window. *)
let crash_window w = (w.duration /. 2., (w.duration /. 2.) +. 0.2)

type instance = {
  workload : t;
  sim : Sim.t;
  engine : Engine.t;
  gen : Workload.Generator.t;
  setup : Harness.Runner.setup;
}

let config w =
  let rate = rate w in
  let base =
    {
      (Engine.default_config ~nodes:w.nodes) with
      Engine.latency = Netsim.Latency.Exponential 0.002;
      think_time = 0.0001;
      policy = Threev.Policy.Periodic w.period;
      shards = w.shards;
      replicas = w.replicas;
      expected_inbox_depth =
        max 16 (int_of_float (rate *. 0.01 /. float_of_int w.nodes));
    }
  in
  if not w.faults then base
  else
    {
      base with
      Engine.reliable_channel = true;
      retransmit_timeout = 0.02;
      hb_period = 0.02;
      hb_timeout = 0.08;
      phase_deadline = 0.5;
    }

let plan w ~seed =
  if not w.faults then Fault.Plan.none
  else
    let at, restart = crash_window w in
    let placement =
      Repl.Placement.create ~nodes:w.nodes ~replicas:w.replicas
    in
    Fault.Plan.make ~seed
      ~rules:(Fault.Plan.uniform_loss ~drop:0.02 ())
      ~crashes:
        (Fault.Plan.crash_replicas
           ~members:(Repl.Placement.members placement 0)
           ~keep:(w.replicas - 1) ~at ~restart)
      ()

(* Everything [Runner.drive] needs, built from [seed] alone: the
   simulation (latency draws), the fault plan (loss draws) and the client
   (arrivals and transaction shapes). *)
let build w ~seed =
  let sim =
    Sim.create ~seed ~queue_capacity:(max 1024 (int_of_float (rate w /. 4.))) ()
  in
  let faults = Fault.Injector.create sim (plan w ~seed) in
  let engine = Engine.create sim (config w) ~faults () in
  let gen =
    Workload.Synthetic.generator
      {
        (Workload.Synthetic.default ~nodes:w.nodes) with
        Workload.Synthetic.arrival_rate = rate w;
        shards = w.shards;
        read_ratio = w.read_ratio;
        fanout = w.fanout;
      }
  in
  {
    workload = w;
    sim;
    engine;
    gen;
    setup =
      {
        Harness.Runner.seed;
        duration = w.duration;
        settle = w.settle;
        max_txns = 1_000_000;
      };
  }
