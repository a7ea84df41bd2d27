(* Benchmark harness.

   Two layers:

   1. The experiment suite — every table/figure/claim reproduced from the
      paper (DESIGN.md §3): run with no arguments, or name experiment ids
      (e.g. `dune exec bench/main.exe -- e1 e4`). `--quick` shrinks sweeps.

   2. Bechamel micro-benchmarks — one Test.make per experiment family,
      measuring the wall-clock cost of the underlying machinery (engine
      steps, store writes, counter polls, checker passes) so regressions in
      the substrate show up independently of the simulated results. *)

module Sim = Simul.Sim
module Engine = Threev.Engine
module Mvstore = Store.Mvstore
module Spec = Txn.Spec
module Op = Txn.Op
module Value = Txn.Value
module Lockmgr = Txn.Lockmgr
module Scenario = Harness.Scenario
open Bechamel
open Toolkit

(* ------------------------------------------------- micro-benchmarks *)

(* T1 family: a complete scripted protocol replay, advancement included. *)
let bench_table1 =
  Test.make ~name:"t1: table1 full replay"
    (Staged.stage (fun () -> ignore (Harness.Table1.run ())))

(* E1 family: a small end-to-end 3V run (4 nodes, 200 transactions). *)
let bench_small_run =
  Test.make ~name:"e1: 3v 4-node 200-txn run"
    (Staged.stage (fun () ->
         let sim = Sim.create ~seed:9 () in
         let engine =
           Engine.create sim
             {
               (Engine.default_config ~nodes:4) with
               Engine.policy = Threev.Policy.Periodic 0.1;
             }
             ()
         in
         let gen =
           Workload.Synthetic.generator
             {
               (Workload.Synthetic.default ~nodes:4) with
               Workload.Synthetic.arrival_rate = 400.;
             }
         in
         ignore
           (Harness.Runner.drive sim (Engine.packed engine) gen
              {
                Harness.Runner.seed = 9;
                duration = 0.5;
                settle = 2.0;
                max_txns = 200;
              })))

(* E2 family: versioned-store write path (copy-on-update + upward write). *)
let bench_store_write =
  let store = Mvstore.create () in
  let i = ref 0 in
  Test.make ~name:"e2: mvstore write_upward"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Mvstore.write_upward store
              ~key:(Printf.sprintf "k%d" (!i land 1023))
              ~version:1 ~init:Value.empty
              ~f:(Value.incr ~txn:!i ~delta:1.))))

(* E4 family: counter-table snapshot, the unit of a coordinator poll. *)
let bench_counter_poll =
  let cnt = Threev.Counters.create ~nodes:16 in
  let () =
    for v = 1 to 2 do
      for dst = 0 to 15 do
        Threev.Counters.incr_r cnt ~version:v ~dst
      done
    done
  in
  Test.make ~name:"e4: counter snapshot (16 nodes)"
    (Staged.stage (fun () ->
         ignore (Threev.Counters.snapshot_r cnt ~version:1);
         ignore (Threev.Counters.snapshot_c cnt ~version:1)))

(* E5 family: lock manager acquire/release round for commute locks. *)
let bench_lockmgr =
  let sim = Sim.create () in
  let locks = Lockmgr.create sim () in
  let i = ref 0 in
  Test.make ~name:"e5: commute lock acquire+release"
    (Staged.stage (fun () ->
         incr i;
         ignore
           (Lockmgr.acquire locks ~owner:!i ~key:"hot"
              ~mode:Lockmgr.Commute_update ());
         Lockmgr.release_all locks ~owner:!i))

(* Shared history for the checker benchmarks, generated once. *)
let checker_history =
  lazy
    (Scenario.run ~settle:3.0
       ~config:(fun c ->
         {
           c with
           latency = Netsim.Latency.Constant 0.005;
           think_time = 0.0001;
         })
       { Scenario.default with seed = 4; rate = 600.; duration = 1.0 })
      .outcome
      .history

(* F1 family: the atomic-visibility checker over a realistic history. *)
let bench_checker =
  Test.make ~name:"f1: atomicity check (1k txns)"
    (Staged.stage (fun () ->
         ignore (Checker.Atomicity.check (Lazy.force checker_history))))

(* E3/E8 family: staleness measurement over the same history. *)
let bench_staleness =
  Test.make ~name:"e3: staleness measure (1k txns)"
    (Staged.stage (fun () ->
         ignore (Checker.Staleness.measure (Lazy.force checker_history))))

(* E6/E7 family: the simulation kernel itself. *)
let bench_sim_kernel =
  Test.make ~name:"e7: sim kernel 5k events"
    (Staged.stage (fun () ->
         let sim = Sim.create () in
         for i = 1 to 100 do
           Sim.spawn sim ~name:(string_of_int i) (fun () ->
               for _ = 1 to 50 do
                 Sim.sleep sim 0.001
               done)
         done;
         ignore (Sim.run sim ())))

let micro_tests =
  [
    bench_table1; bench_small_run; bench_store_write; bench_counter_poll;
    bench_lockmgr; bench_checker; bench_staleness; bench_sim_kernel;
  ]

let run_micro () =
  print_endline "## Micro-benchmarks (Bechamel, monotonic clock)\n";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 10)
      ~stabilize:false ()
  in
  let table =
    Stats.Table.create ~title:"micro-benchmarks"
      ~columns:[ "benchmark"; "time/run"; "r^2" ]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      (* Rows sorted by benchmark name: bechamel hands results back in a
         hash table, and the report order must not depend on its layout. *)
      Hashtbl.fold (fun name ols_result acc -> (name, ols_result) :: acc)
        analyzed []
      |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      |> List.iter (fun (name, ols_result) ->
             let time_ns =
               match Analyze.OLS.estimates ols_result with
               | Some (t :: _) -> t
               | Some [] | None -> Float.nan
             in
             let r2 =
               match Analyze.OLS.r_square ols_result with
               | Some r -> Printf.sprintf "%.4f" r
               | None -> "n/a"
             in
             let pretty =
               if time_ns >= 1e9 then Printf.sprintf "%.3f s" (time_ns /. 1e9)
               else if time_ns >= 1e6 then
                 Printf.sprintf "%.3f ms" (time_ns /. 1e6)
               else if time_ns >= 1e3 then
                 Printf.sprintf "%.3f us" (time_ns /. 1e3)
               else Printf.sprintf "%.1f ns" time_ns
             in
             Stats.Table.add_row table [ name; pretty; r2 ]))
    micro_tests;
  Stats.Table.print table

(* ------------------------------------------------------- smoke gates *)

(* The checked sub-second CI gates, one table row each: a Harness.Scenario
   — driven through the build, fault plan and verify path of `threev_sim
   run` and the fuzzer, under knobs the command line cannot express (fanout,
   keys per node, latency, think time, settle) — plus the gate's own
   predicates. A gate fails (exit 1) on a failed predicate or verify check,
   never on timing. Predicates and counts read the run before
   [Scenario.verify] publishes the store with two more advancements. *)

type gate = {
  name : string;
  headline : string;
  drive : unit -> Scenario.run;
  needs : (string * (Scenario.run -> bool)) list;
      (** failure message, predicate *)
  shows : (Scenario.run -> string) list;  (** the counts reported *)
}

let engine (r : Scenario.run) = Option.get r.engine
let committed (r : Scenario.run) = r.outcome.Harness.Runner.committed
let advancements r = Engine.advancements_completed (engine r)
let stat name (r : Scenario.run) =
  Stats.Counter_set.get r.outcome.Harness.Runner.stats name

let count label f r = Printf.sprintf "%d %s" (f r) label
let committed_some = ("no transactions committed", fun r -> committed r > 0)

let run_gate g =
  let r = g.drive () in
  let counts = String.concat ", " (List.map (fun f -> f r) g.shows) in
  let fail msg =
    Printf.eprintf "%s: FAILED: %s (%s)\n" g.name msg counts;
    exit 1
  in
  List.iter (fun (msg, ok) -> if not (ok r) then fail msg) g.needs;
  List.iter
    (fun (c : Scenario.check) ->
      if not c.ok then fail (c.check_name ^ ": " ^ c.detail))
    (Scenario.verify r).checks;
  Printf.printf "%s: %s (%s)\n" g.name g.headline counts

(* A run of [sc] over a small, hot synthetic key space. *)
let smoke_run ~fanout (sc : Scenario.t) () =
  Scenario.run ~settle:4.0 sc
    ~gen:
      Workload.Synthetic.(
        generator
          {
            (default ~nodes:sc.nodes) with
            arrival_rate = sc.rate;
            shards = sc.shards;
            read_ratio = sc.read_ratio;
            fanout;
            keys_per_node = 15;
          })

(* k = 3 over 6 nodes, one replica of group 0 crashed across an
   advancement window. *)
let replica_crash =
  {
    Scenario.default with
    workload = W_synthetic;
    nodes = 6;
    replicas = 3;
    duration = 0.9;
    read_ratio = 0.3;
    seed = 23;
    fault_seed = 23;
    atoms = [ Crash (0, 0.25, 0.7) ];
  }

let shard_history_digest (r : Scenario.run) =
  List.fold_left
    (fun acc ((spec : Spec.t), res) ->
      acc
      lxor Hashtbl.hash
             ( spec.Spec.id,
               Txn.Result.committed res,
               res.Txn.Result.submit_time,
               Txn.Result.latency res,
               Txn.Result.blocking_latency res ))
    0 r.outcome.Harness.Runner.history
  land 0xffffffff

let recorded_shard_digest = 0x1148858e

let shard_run =
  smoke_run ~fanout:3
    {
      Scenario.default with
      workload = W_synthetic;
      nodes = 8;
      shards = 4;
      replicas = 2;
      duration = 0.9;
      read_ratio = 0.35;
      seed = 41;
      fault_seed = 41;
      atoms = [ Crash (2, 0.25, 0.7) ];
    }

let gates =
  [
    (* Quorum polling keeps advancing with the replica down. *)
    {
      name = "repl-smoke";
      headline = "ok";
      drive = smoke_run ~fanout:2 replica_crash;
      needs =
        [
          committed_some;
          ( "advancement stalled (quorum never reached with one replica down)",
            fun r -> advancements r > 0 );
        ];
      shows =
        [
          count "committed" committed; count "advancements" advancements;
          count "failovers" (stat "repl.failovers");
          count "mirrors" (stat "repl.mirrors");
          count "recoveries" (stat "repl.recoveries");
        ];
    };
    (* The same crash with the failure detector on and a false-suspicion
       storm against a live node: the detector must suspect, and the
       falsely suspected node must re-earn trust. *)
    {
      name = "fd-smoke";
      headline = "ok";
      drive =
        smoke_run ~fanout:2
          {
            replica_crash with
            seed = 29;
            fault_seed = 29;
            hb_period = 0.02;
            hb_timeout = 0.08;
            phase_deadline = 0.5;
            atoms = [ Hb_loss (3, 0.2, 0.6, 1.); Crash (0, 0.25, 0.7) ];
          };
      needs =
        [
          committed_some;
          ("advancement stalled under suspicion", fun r -> advancements r > 0);
          ("no heartbeats sent", fun r -> stat "fd.heartbeats_sent" r > 0);
          ( "crash + storm provoked no suspicion",
            fun r -> stat "fd.suspicions" r > 0 );
          ( "no suspected node ever re-earned trust",
            fun r -> stat "fd.recoveries" r > 0 );
        ];
      shows =
        [
          count "committed" committed; count "advancements" advancements;
          count "heartbeats" (stat "fd.heartbeats_sent");
          count "suspicions" (stat "fd.suspicions");
          count "confirmed" (stat "fd.confirmed");
          count "recoveries" (stat "fd.recoveries");
          count "failovers" (stat "repl.failovers");
        ];
    };
    (* 8 nodes, S = 4, k = 2 (each shard one replica group), one replica
       crashed across an advancement window; updates stay in one shard
       while reads fan out, exercising the cross-shard read-vector path.
       Every shard must advance, and the schedule is pinned: the digest is
       recorded (refresh it deliberately if a change reshapes multi-shard
       schedules) and a second run must reproduce it. *)
    {
      name = "shard-smoke";
      headline = "ok";
      drive = shard_run;
      needs =
        [
          committed_some;
          ( "advancement stalled (every shard must advance)",
            fun r -> advancements r >= 4 );
          ( "no cross-shard read was ever assigned a vector (workload too \
             tame)",
            fun r -> stat "shard.vectored_reads" r > 0 );
          ( Printf.sprintf
              "schedule digest drift from the recorded 0x%08x (update the \
               constant if the change is intentional)"
              recorded_shard_digest,
            fun r -> shard_history_digest r = recorded_shard_digest );
          ( "replay diverged (same seeds, different multi-shard schedule)",
            fun r ->
              shard_history_digest (shard_run ()) = shard_history_digest r );
        ];
      shows =
        [
          count "committed" committed;
          count "advancements over 4 shards" advancements;
          count "vectored reads" (stat "shard.vectored_reads");
          (fun r -> Printf.sprintf "digest 0x%08x" (shard_history_digest r));
        ];
    };
  ]

(* Scale-smoke's duplicate-filter leg: a lossy run over the reliable
   channel, retransmit-heavy by construction. Ack-floor pruning must keep
   the network's delivered_seen table at the in-flight window, not the run
   length: entries survive only while acks are outstanding, so a tenth of
   all traffic ever sent is far above any honest window and far below the
   unpruned count. *)
let lossy_gate =
  let seen r = Engine.delivered_seen_size (engine r)
  and msgs r = Engine.messages_sent (engine r) in
  {
    name = "scale-smoke";
    headline = "delivered_seen bounded";
    drive =
      (fun () ->
        Scenario.run ~settle:2.0
          ~config:(fun c ->
            {
              c with
              latency = Netsim.Latency.Exponential 0.002;
              think_time = 0.0001;
            })
          {
            Scenario.default with
            workload = W_synthetic;
            nodes = 6;
            rate = 600.;
            duration = 0.5;
            seed = 11;
            period = 0.25;
            fault_seed = 11;
            atoms = [ Loss 0.15 ];
          });
    needs =
      [
        ( "lossy channel run produced no retransmissions",
          fun r -> stat "net.retransmissions" r > 0 );
        ("delivered_seen unbounded", fun r -> seen r <= max 64 (msgs r / 10));
      ];
    shows =
      [
        count "entries" seen; count "messages" msgs;
        count "retransmissions" (stat "net.retransmissions");
      ];
  }

(* ------------------------------------------------------ scale suite *)

(* The BENCH trajectory: end-to-end 3V runs at 4/16/64/128 nodes with an
   arrival-rate sweep, recording simulated throughput against real machine
   cost (wall seconds, events/sec, peak heap) into BENCH_scale.json. Each
   run traces through a small bounded ring (capacity 4096) to demonstrate
   that trace memory stays O(capacity) while the run emits orders of
   magnitude more events — the row records both retained and total. *)

(* The trajectory suites' run: a 3V engine on [sim] over a fast network
   (2 ms exponential latency, 0.1 ms think time), driven by the synthetic
   workload (fanout 2) and timed on the wall clock. *)
let timed_run sim ?trace ?faults (cfg : Engine.config) ?(read_ratio = 0.3) ~rate
    ~seed ~duration ~settle () =
  let engine =
    Engine.create sim ?trace ?faults
      {
        cfg with
        latency = Netsim.Latency.Exponential 0.002;
        think_time = 0.0001;
      }
      ()
  in
  let gen =
    Workload.Synthetic.(
      generator
        {
          (default ~nodes:cfg.nodes) with
          arrival_rate = rate;
          shards = cfg.shards;
          read_ratio;
          fanout = 2;
        })
  in
  let wall0 = Unix.gettimeofday () in
  let outcome =
    Harness.Runner.drive sim (Engine.packed engine) gen
      { seed; duration; settle; max_txns = 500_000 }
  in
  (engine, outcome, Unix.gettimeofday () -. wall0)

type scale_row = {
  sr_nodes : int;
  sr_rate : float;
  sr_shards : int;
  sr_sim_duration : float;
  sr_submitted : int;
  sr_committed : int;
  sr_events : int;
  sr_wall : float;
  sr_peak_heap_words : int;
  sr_trace_capacity : int;
  sr_trace_retained : int;
  sr_trace_total : int;
}

let scale_trace_capacity = 4096

let scale_run ?(shards = 1) ~nodes ~rate ~duration ~settle () =
  (* Pre-size the event heap and per-node inboxes from the configured
     arrival rate: the steady-state event population is roughly (in-flight
     messages + sleeping fibers) ~ rate × a few mean latencies, so sizing
     the backing arrays up front removes every doubling copy from the
     measured region. Capacity hints never affect the schedule. *)
  let queue_capacity = max 1024 (int_of_float (rate /. 4.)) in
  let sim = Sim.create ~seed:(1000 + nodes) ~queue_capacity () in
  let trace = Threev.Trace.create ~capacity:scale_trace_capacity () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      (* Advancement cadence: the 512/1024-node rows tighten the period —
         the low-staleness regime (staleness ∝ period, e3) where
         advancement cost dominates the coordinator's wall time and the
         per-shard split pays. The period is a function of nodes only, so
         the sharded row and the single-coordinator row at the same
         (nodes, rate) run identical configurations apart from [shards] —
         the comparison stays apples-to-apples. 1024 nodes gets 0.1 rather
         than 0.05 because a single coordinator needs ~0.2 simulated
         seconds per 1024-node advancement: at 0.05 it is hopelessly
         saturated and the sharded side would be measured against a
         pathology rather than a busy-but-live baseline. *)
      Engine.policy =
        Threev.Policy.Periodic
          (if nodes >= 1024 then 0.1 else if nodes >= 512 then 0.05 else 0.25);
      shards;
      expected_inbox_depth =
        max 16 (int_of_float (rate *. 0.01 /. float_of_int nodes));
    }
  in
  let _, outcome, wall =
    timed_run sim ~trace cfg ~rate ~seed:nodes ~duration ~settle ()
  in
  {
    sr_nodes = nodes;
    sr_rate = rate;
    sr_shards = shards;
    sr_sim_duration = duration;
    sr_submitted = outcome.Harness.Runner.submitted;
    sr_committed = outcome.Harness.Runner.committed;
    sr_events = Sim.events_executed sim;
    sr_wall = wall;
    sr_peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
    sr_trace_capacity = scale_trace_capacity;
    sr_trace_retained = Threev.Trace.length trace;
    sr_trace_total = Threev.Trace.total trace;
  }

let scale_json rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"bench_scale/v1\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"nodes\": %d, \"arrival_rate\": %.1f, \"shards\": %d, \
            \"sim_duration_s\": %.2f, \"submitted\": %d, \"committed\": %d, \
            \"txns_per_sec_wall\": %.1f, \"events\": %d, \
            \"events_per_sec_wall\": %.1f, \"wall_s\": %.3f, \
            \"peak_heap_words\": %d, \"trace_capacity\": %d, \
            \"trace_retained\": %d, \"trace_total\": %d }"
           r.sr_nodes r.sr_rate r.sr_shards r.sr_sim_duration r.sr_submitted
           r.sr_committed
           (float_of_int r.sr_committed /. r.sr_wall)
           r.sr_events
           (float_of_int r.sr_events /. r.sr_wall)
           r.sr_wall r.sr_peak_heap_words r.sr_trace_capacity
           r.sr_trace_retained r.sr_trace_total))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* `main.exe scale [--quick]`: run the sweep and write BENCH_scale.json in
   the current directory (run from the repo root to refresh the recorded
   trajectory). The full sweep now tops out at 1024 nodes; its largest row
   runs several million simulator events, so expect tens of seconds of wall
   time. --quick shrinks to a sub-second sanity sweep and skips the file
   write. *)
let run_scale ~quick =
  (* (nodes, rate multiplier, shards). The 512/1024-node rows run at the
     tight advancement cadence (see the policy note in [scale_run]) both
     single-coordinator and sharded, holding the shard block constant at
     64 nodes (512 -> S=8, 1024 -> S=16): per-shard advancement cost then
     stays flat as the cluster grows, while the single coordinator's
     O(nodes)-wide polls and O(nodes²) matrices saturate — it cannot even
     sustain the cadence, and its wall time per advancement is where the
     sharded rows' ≥ 2x events/sec advantage comes from. The 512-node rows
     use lower arrival multipliers than the mid-size rows on purpose:
     per-event transaction cost is identical under both layouts, so a high
     arrival rate only dilutes the advancement-cost asymmetry the row
     exists to expose. *)
  let plan =
    if quick then [ (4, 1., 1); (16, 1., 1) ]
    else
      [ (4, 1., 1); (4, 2., 1); (16, 1., 1); (16, 2., 1); (64, 1., 1);
        (64, 2., 1); (128, 1., 1); (128, 2.5, 1); (512, 0.25, 1);
        (512, 0.5, 1); (1024, 0.5, 1); (1024, 1., 1); (512, 0.25, 8);
        (512, 0.5, 8); (1024, 0.5, 16); (1024, 1., 16) ]
  in
  let duration = if quick then 0.3 else 1.5 in
  let settle = if quick then 1.0 else 3.0 in
  let rows =
    List.map
      (fun (nodes, mult, shards) ->
        let rate = 150. *. float_of_int nodes *. mult in
        let r = scale_run ~shards ~nodes ~rate ~duration ~settle () in
        Printf.printf
          "scale: %4d nodes S=%d @ %8.0f txns/s sim -> %8d events, %6.3fs \
           wall, %5.2f Mev/s, trace %d/%d (cap %d)\n%!"
          r.sr_nodes r.sr_shards r.sr_rate r.sr_events r.sr_wall
          (float_of_int r.sr_events /. r.sr_wall /. 1e6)
          r.sr_trace_retained r.sr_trace_total r.sr_trace_capacity;
        r)
      plan
  in
  if not quick then begin
    let oc = open_out "BENCH_scale.json" in
    output_string oc (scale_json rows);
    close_out oc;
    print_endline "scale: wrote BENCH_scale.json"
  end

(* The recorded (events/sec-wall, peak heap words) of the BENCH_scale.json
   row matching [(nodes, rate, shards)], if the trajectory file exists in
   the cwd. Rows written before the shards field existed match
   [shards = 1]; the peak-heap component is [None] for rows written before
   that field existed. *)
let recorded_scale_row ~shards ~nodes ~rate =
  match
    In_channel.with_open_bin "BENCH_scale.json" (fun ic ->
        really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error _ -> None
  | doc ->
      let field k row =
        match Json.member k row with
        | Some (Json.Int i) -> Some (float_of_int i)
        | Some (Json.Float f) -> Some f
        | _ -> None
      in
      let rows =
        match Json.member "rows" (Json.of_string doc) with
        | Some (Json.List rows) -> rows
        | _ -> []
      in
      List.find_map
        (fun row ->
          if
            field "nodes" row = Some (float_of_int nodes)
            && field "arrival_rate" row = Some rate
            && Option.value (field "shards" row) ~default:1.
               = float_of_int shards
          then
            Option.map
              (fun eps -> (eps, field "peak_heap_words" row))
              (field "events_per_sec_wall" row)
          else None)
        rows

(* `main.exe scale-smoke`: the sub-second CI gate. Fails (exit 1) on crash
   or on the unbounded-memory sentinel — a trace ring that exceeded its
   capacity. When BENCH_scale.json is present it additionally re-runs the
   16-node top row (shortened) best-of-three and fails on an events/sec
   regression worse than 15% against the recorded trajectory; absent the
   file, the throughput leg is skipped so fresh clones still gate on the
   memory sentinel alone. *)
let run_scale_smoke () =
  let cap = 64 in
  let sim = Sim.create ~seed:7 () in
  let trace = Threev.Trace.create ~capacity:cap () in
  let cfg =
    {
      (Engine.default_config ~nodes:8) with
      policy = Threev.Policy.Periodic 0.25;
    }
  in
  let _, outcome, _ =
    timed_run sim ~trace cfg ~read_ratio:0.25 ~rate:1200. ~seed:7 ~duration:0.3
      ~settle:1.5 ()
  in
  let fail msg =
    prerr_endline ("scale-smoke: FAILED: " ^ msg);
    exit 1
  in
  if outcome.Harness.Runner.committed = 0 then fail "no transactions committed";
  if Threev.Trace.length trace > cap then
    fail
      (Printf.sprintf "trace ring exceeded capacity (%d > %d)"
         (Threev.Trace.length trace) cap);
  if Threev.Trace.length trace <> List.length (Threev.Trace.events trace) then
    fail "trace length disagrees with materialized events";
  if Threev.Trace.total trace <= cap then
    fail "run too small to exercise ring eviction";
  (* Throughput/memory ratchet, matched against the recorded trajectory by
     (nodes, arrival_rate, shards) so the 512/1024 and sharded rows ratchet
     too, not just the 16-node row. Each probe re-runs its row shortened;
     the big rows get a single shorter run and a looser floor (fixed
     engine-construction cost amortizes worse over a short window), which
     still catches the step-function regressions that matter at that
     scale. The memory leg only applies to the first (small) probe: peak
     heap is process-global and monotone, so rows probed after a 512-node
     run would inherit its footprint. *)
  let probe ~nodes ~rate ~shards ~runs ~duration ~floor_frac ~mem =
    match recorded_scale_row ~shards ~nodes ~rate with
    | None ->
        Printf.printf
          "scale-smoke: no baseline row for %d nodes @ %.0f S=%d, probe \
           skipped\n"
          nodes rate shards
    | Some (baseline, baseline_peak) ->
        let best = ref 0. in
        let peak = ref max_int in
        for _ = 1 to runs do
          let r = scale_run ~shards ~nodes ~rate ~duration ~settle:1.0 () in
          let eps = float_of_int r.sr_events /. r.sr_wall in
          if eps > !best then best := eps;
          if r.sr_peak_heap_words < !peak then peak := r.sr_peak_heap_words
        done;
        let floor_ = floor_frac *. baseline in
        if !best < floor_ then
          fail
            (Printf.sprintf
               "throughput regression at %d nodes @ %.0f S=%d: best-of-%d \
                %.0f events/s vs recorded %.0f (floor %.0f); refresh with \
                `dune exec bench/main.exe -- scale` if intentional"
               nodes rate shards runs !best baseline floor_);
        Printf.printf
          "scale-smoke: throughput ok at %d nodes S=%d (best-of-%d %.2f \
           Mev/s vs recorded %.2f, floor %.0f%%)\n"
          nodes shards runs (!best /. 1e6) (baseline /. 1e6)
          (100. *. floor_frac);
        if mem then
          (* Memory gate: the smoke re-run is strictly smaller than the
             recorded row, so its peak heap must not exceed the recorded
             peak by more than 20% — a leak on the hot path shows up here
             long before the trace-ring sentinel trips. *)
          match baseline_peak with
          | None ->
              print_endline
                "scale-smoke: baseline row lacks peak_heap_words, memory \
                 leg skipped"
          | Some bp ->
              let ceiling = 1.2 *. bp in
              if float_of_int !peak > ceiling then
                fail
                  (Printf.sprintf
                     "peak heap regression: best-of-%d %d words vs recorded \
                      %.0f (ceiling %.0f); refresh with `dune exec \
                      bench/main.exe -- scale` if intentional"
                     runs !peak bp ceiling);
              Printf.printf
                "scale-smoke: peak heap ok (%d words vs recorded %.0f, \
                 ceiling +20%%)\n"
                !peak bp
  in
  probe ~nodes:16 ~rate:4800. ~shards:1 ~runs:3 ~duration:0.4 ~floor_frac:0.85
    ~mem:true;
  probe ~nodes:512 ~rate:38400. ~shards:1 ~runs:1 ~duration:0.1
    ~floor_frac:0.4 ~mem:false;
  probe ~nodes:512 ~rate:38400. ~shards:8 ~runs:1 ~duration:0.1
    ~floor_frac:0.4 ~mem:false;
  run_gate lossy_gate;
  Printf.printf
    "scale-smoke: ok (%d committed, %d sim events, trace %d/%d, cap %d)\n"
    outcome.Harness.Runner.committed (Sim.events_executed sim)
    (Threev.Trace.length trace) (Threev.Trace.total trace) cap

(* ------------------------------------------------- replication suite *)

(* The BENCH repl trajectory: end-to-end runs at 64 nodes comparing k = 1
   (replication disabled, every group a singleton) against k = 3 (every
   commuting write mirrored to two extra replicas, reads failing over along
   the group order). Rows record the replication overhead — mirror count,
   message amplification, machine cost — into BENCH_repl.json. *)

type repl_row = {
  rr_nodes : int;
  rr_replicas : int;
  rr_rate : float;
  rr_sim_duration : float;
  rr_submitted : int;
  rr_committed : int;
  rr_advancements : int;
  rr_mirrors : int;
  rr_remote_msgs : int;
  rr_events : int;
  rr_wall : float;
}

let repl_run ~nodes ~replicas ~rate ~duration ~settle =
  let sim = Sim.create ~seed:(2000 + nodes + replicas) () in
  let engine, outcome, wall =
    timed_run sim
      {
        (Engine.default_config ~nodes) with
        replicas;
        policy = Threev.Policy.Periodic 0.25;
      }
      ~rate ~seed:nodes ~duration ~settle ()
  in
  {
    rr_nodes = nodes;
    rr_replicas = replicas;
    rr_rate = rate;
    rr_sim_duration = duration;
    rr_submitted = outcome.Harness.Runner.submitted;
    rr_committed = outcome.Harness.Runner.committed;
    rr_advancements = Engine.advancements_completed engine;
    rr_mirrors =
      Stats.Counter_set.get outcome.Harness.Runner.stats "repl.mirrors";
    rr_remote_msgs = Engine.remote_messages_sent engine;
    rr_events = Sim.events_executed sim;
    rr_wall = wall;
  }

let repl_json rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"bench_repl/v1\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"nodes\": %d, \"replicas\": %d, \"arrival_rate\": %.1f, \
            \"sim_duration_s\": %.2f, \"submitted\": %d, \"committed\": %d, \
            \"advancements\": %d, \"mirrors\": %d, \"remote_messages\": %d, \
            \"events\": %d, \"wall_s\": %.3f, \
            \"events_per_sec_wall\": %.1f }"
           r.rr_nodes r.rr_replicas r.rr_rate r.rr_sim_duration r.rr_submitted
           r.rr_committed r.rr_advancements r.rr_mirrors r.rr_remote_msgs
           r.rr_events r.rr_wall
           (float_of_int r.rr_events /. r.rr_wall)))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* `main.exe repl [--quick]`: k = 1 vs k = 3 at 64 nodes; write
   BENCH_repl.json from the repo root. --quick shrinks to 16 nodes and
   skips the file write. *)
let run_repl ~quick =
  let nodes = if quick then 16 else 64 in
  let duration = if quick then 0.3 else 1.0 in
  let settle = if quick then 1.5 else 3.0 in
  let rate = 100. *. float_of_int nodes in
  let rows =
    List.map
      (fun replicas ->
        let r = repl_run ~nodes ~replicas ~rate ~duration ~settle in
        Printf.printf
          "repl: %3d nodes k=%d @ %7.0f txns/s sim -> %6d committed, %7d \
           mirrors, %8d events, %6.3fs wall\n%!"
          r.rr_nodes r.rr_replicas r.rr_rate r.rr_committed r.rr_mirrors
          r.rr_events r.rr_wall;
        r)
      [ 1; 3 ]
  in
  if not quick then begin
    let oc = open_out "BENCH_repl.json" in
    output_string oc (repl_json rows);
    close_out oc;
    print_endline "repl: wrote BENCH_repl.json"
  end

(* -------------------------------------------- failure-detector suite *)

(* The BENCH fd trajectory: 16-node k = 3 runs measuring what oracle-free
   liveness costs. Three rows into BENCH_fd.json: detector off (baseline),
   detector on (heartbeat overhead: side-network messages, extra simulator
   events, machine cost), and detector on under a false-suspicion storm
   (one node's outbound heartbeats dropped across the middle of the run —
   suspicion, failover and recovery traffic on top of the heartbeats). *)

type fd_row = {
  fr_label : string;
  fr_nodes : int;
  fr_rate : float;
  fr_sim_duration : float;
  fr_submitted : int;
  fr_committed : int;
  fr_advancements : int;
  fr_hb_sent : int;
  fr_hb_recv : int;
  fr_hb_dropped : int;
  fr_suspicions : int;
  fr_confirmed : int;
  fr_recoveries : int;
  fr_failovers : int;
  fr_events : int;
  fr_wall : float;
}

let fd_run ~label ~nodes ~rate ~duration ~settle ~fd ~storm:storm_on =
  let sim = Sim.create ~seed:(3000 + nodes) () in
  let cfg =
    {
      (Engine.default_config ~nodes) with
      Engine.replicas = 3;
      policy = Threev.Policy.Periodic 0.25;
      reliable_channel = true;
      retransmit_timeout = 0.02;
      hb_period = (if fd then 0.02 else 0.);
      hb_timeout = 0.08;
      phase_deadline = (if fd then 0.5 else infinity);
    }
  in
  let storm =
    Scenario.plan
      {
        Scenario.default with
        nodes;
        fault_seed = 3000 + nodes;
        atoms = [ Hb_loss (1, 0.3 *. duration, 0.7 *. duration, 1.) ];
      }
  in
  let faults =
    Fault.Injector.create sim
      (if storm_on then Option.get storm else Fault.Plan.none)
  in
  let engine, outcome, wall =
    timed_run sim ~faults cfg ~rate ~seed:nodes ~duration ~settle ()
  in
  let c name = Stats.Counter_set.get outcome.Harness.Runner.stats name in
  {
    fr_label = label;
    fr_nodes = nodes;
    fr_rate = rate;
    fr_sim_duration = duration;
    fr_submitted = outcome.Harness.Runner.submitted;
    fr_committed = outcome.Harness.Runner.committed;
    fr_advancements = Engine.advancements_completed engine;
    fr_hb_sent = c "fd.heartbeats_sent";
    fr_hb_recv = c "fd.heartbeats_received";
    fr_hb_dropped = c "fd.heartbeats_dropped";
    fr_suspicions = c "fd.suspicions";
    fr_confirmed = c "fd.confirmed";
    fr_recoveries = c "fd.recoveries";
    fr_failovers = c "repl.failovers";
    fr_events = Sim.events_executed sim;
    fr_wall = wall;
  }

(* Heartbeat-plane simulator events for one row, from measured counters:
   each beat costs one sender-timer event, each non-dropped beat one
   delivery event, and each consumed beat (at most) one monitor wake
   event. Raw events/sec counted this plane as throughput, which made a
   detector-on run look {e faster} than the same run with the detector
   off — more events, same wall time. [protocol_events_per_sec_wall]
   subtracts the plane; [txns_per_sec_wall] stays the primary metric. *)
let fd_hb_plane_events r =
  r.fr_hb_sent + (r.fr_hb_sent - r.fr_hb_dropped) + r.fr_hb_recv

let fd_json rows =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n  \"schema\": \"bench_fd/v2\",\n  \"rows\": [\n";
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      let hb_plane = fd_hb_plane_events r in
      Buffer.add_string buf
        (Printf.sprintf
           "    { \"case\": \"%s\", \"nodes\": %d, \"arrival_rate\": %.1f, \
            \"sim_duration_s\": %.2f, \"submitted\": %d, \"committed\": %d, \
            \"advancements\": %d, \"heartbeats_sent\": %d, \
            \"heartbeats_received\": %d, \"heartbeats_dropped\": %d, \
            \"suspicions\": %d, \
            \"confirmed_down\": %d, \"recoveries\": %d, \"failovers\": %d, \
            \"events\": %d, \"hb_plane_events\": %d, \"wall_s\": %.3f, \
            \"txns_per_sec_wall\": %.1f, \
            \"protocol_events_per_sec_wall\": %.1f, \
            \"events_per_sec_wall\": %.1f }"
           r.fr_label r.fr_nodes r.fr_rate r.fr_sim_duration r.fr_submitted
           r.fr_committed r.fr_advancements r.fr_hb_sent r.fr_hb_recv
           r.fr_hb_dropped
           r.fr_suspicions r.fr_confirmed r.fr_recoveries r.fr_failovers
           r.fr_events hb_plane r.fr_wall
           (float_of_int r.fr_committed /. r.fr_wall)
           (float_of_int (r.fr_events - hb_plane) /. r.fr_wall)
           (float_of_int r.fr_events /. r.fr_wall)))
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf

(* `main.exe fd [--quick]`: detector off / on / on-under-storm at 16 nodes;
   write BENCH_fd.json from the repo root. --quick shrinks to 8 nodes and
   skips the file write. *)
let run_fd ~quick =
  let nodes = if quick then 8 else 16 in
  let duration = if quick then 0.4 else 1.0 in
  let settle = if quick then 1.5 else 3.0 in
  let rate = 100. *. float_of_int nodes in
  let rows =
    List.map
      (fun (label, fd, storm) ->
        let r = fd_run ~label ~nodes ~rate ~duration ~settle ~fd ~storm in
        Printf.printf
          "fd: %-9s %3d nodes @ %6.0f txns/s sim -> %6d committed, %6d \
           heartbeats, %3d suspicions, %8d events, %6.3fs wall, %8.0f \
           txns/s wall, %5.2f proto Mev/s\n%!"
          r.fr_label r.fr_nodes r.fr_rate r.fr_committed r.fr_hb_sent
          r.fr_suspicions r.fr_events r.fr_wall
          (float_of_int r.fr_committed /. r.fr_wall)
          (float_of_int (r.fr_events - fd_hb_plane_events r)
          /. r.fr_wall /. 1e6);
        r)
      [ ("fd-off", false, false); ("fd-on", true, false);
        ("fd-storm", true, true) ]
  in
  if not quick then begin
    let oc = open_out "BENCH_fd.json" in
    output_string oc (fd_json rows);
    close_out oc;
    print_endline "fd: wrote BENCH_fd.json"
  end

(* `main.exe fuzz-smoke`: sub-second slice of the schedule-fuzz sweep —
   ten deterministic quick cases (two full engine rotations). Fails on any
   strict-engine 1SR violation, and requires the certifier to have flagged
   at least one seeded-anomaly baseline, proving the gate has teeth. *)
let run_fuzz_smoke () =
  let s = Harness.Fuzz.sweep ~runs:10 ~quick:true () in
  Format.printf "fuzz-smoke: %a@." Harness.Fuzz.pp_summary s;
  if not (Harness.Fuzz.ok s) then begin
    prerr_endline "fuzz-smoke: FAILED (strict-engine violation)";
    exit 1
  end;
  if s.Harness.Fuzz.anomalies_flagged = 0 then begin
    prerr_endline "fuzz-smoke: FAILED (no baseline anomaly flagged)";
    exit 1
  end

(* --------------------------------------------------------------- main *)

(* `main.exe smoke`: the CI gate wired into `dune runtest` — Table 1 replay
   plus a tiny lossy-network E11, well under ten seconds. *)
let run_smoke () =
  let ok, report = Harness.Experiments.smoke () in
  print_string "## Smoke suite\n\n";
  print_string report;
  if ok then print_endline "smoke: all checks passed"
  else begin
    prerr_endline "smoke: FAILED";
    exit 1
  end

let () =
  (* Wall-clock harness tuning only: a large minor heap and a relaxed major
     space overhead keep the allocation-heavy simulator out of the GC on the
     measured path. Simulated results (digests, event counts, commit counts)
     are GC-independent; this affects wall times alone. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024; space_overhead = 200 };
  let args = List.tl (Array.to_list Sys.argv) in
  if args = [ "smoke" ] then (run_smoke (); exit 0);
  if args = [ "scale-smoke" ] then (run_scale_smoke (); exit 0);
  if args = [ "fuzz-smoke" ] then (run_fuzz_smoke (); exit 0);
  List.iter (fun g -> if args = [ g.name ] then (run_gate g; exit 0)) gates;
  let quick = List.mem "--quick" args in
  if List.mem "scale" args then (run_scale ~quick; exit 0);
  if List.mem "repl" args then (run_repl ~quick; exit 0);
  if List.mem "fd" args then (run_fd ~quick; exit 0);
  let no_micro = List.mem "--no-micro" args in
  let ids =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  let experiments =
    match ids with
    | [] -> Harness.Experiments.all
    | ids ->
        List.filter_map
          (fun id ->
            match Harness.Experiments.find id with
            | Some e -> Some e
            | None ->
                Printf.eprintf "unknown experiment id %S\n" id;
                None)
          ids
  in
  List.iter
    (fun (e : Harness.Experiments.t) ->
      Printf.printf "== %s: %s (%s) ==\n%!" e.id e.title e.paper_ref;
      print_string (e.run ~quick);
      print_newline ())
    experiments;
  if (not no_micro) && ids = [] then run_micro ()
