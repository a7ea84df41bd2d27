module Sim = Simul.Sim
module Latency = Netsim.Latency
module Spec = Txn.Spec
module Op = Txn.Op
module Result = Txn.Result
module Engine = Threev.Engine
module Policy = Threev.Policy
module Counter_set = Stats.Counter_set
module Histogram = Stats.Histogram
module Table = Stats.Table
module Global_2pc = Baselines.Global_2pc
module Manual_versioning = Baselines.Manual_versioning

type t = {
  id : string;
  title : string;
  paper_ref : string;
  run : quick:bool -> string;
}

(* ------------------------------------------------------------ helpers *)

(* Every experiment below is a sweep of cases — a [Scenario.t], plus where
   needed a [~config] tweak and a [~gen] workload shape — run through
   [Scenario.run]; a row function turning each run into table cells; and
   the notes. *)

let ms x = Printf.sprintf "%.2f" (1000. *. x)
let p50 h = ms (Histogram.percentile h 50.)
let p99 h = ms (Histogram.percentile h 99.)
let hist_cells h = [ p50 h; p99 h; ms (Histogram.max h) ]

(* The 3V engine of a run. *)
let engine (r : Scenario.run) = Option.get r.Scenario.engine
let advancements r = Engine.advancements_completed (engine r)
let stat (o : Runner.outcome) name = Counter_set.get o.Runner.stats name

let partial_reads o =
  Table.cell_i (Runner.atomicity o).Checker.Atomicity.partial_reads

let rec count_write_ops_subtxn (st : Spec.subtxn) =
  List.length (List.filter Op.is_write st.Spec.ops)
  + List.fold_left (fun acc c -> acc + count_write_ops_subtxn c) 0
      st.Spec.children

(* Total committed write operations in a history — denominator for the
   copy-on-write / dual-write overhead ratios. *)
let committed_writes (outcome : Runner.outcome) =
  List.fold_left
    (fun acc ((spec : Spec.t), res) ->
      if Result.committed res && spec.Spec.kind <> Spec.Read_only then
        acc + count_write_ops_subtxn spec.Spec.root
      else acc)
    0 outcome.Runner.history

let committed_updates (outcome : Runner.outcome) =
  List.fold_left
    (fun acc ((spec : Spec.t), res) ->
      if Result.committed res && spec.Spec.kind <> Spec.Read_only then acc + 1
      else acc)
    0 outcome.Runner.history

let notes lines = String.concat "\n" lines ^ "\n"

(* An experiment's report: the table, one row per case, then the notes. *)
let report ~title ~columns rows lines =
  let table = Table.create ~title ~columns in
  List.iter (Table.add_row table) rows;
  Table.to_string table ^ notes lines

(* The synthetic mix at the scenario's size, rate and read ratio: fan-out-2
   transactions over [keys] keys per node with zipf-[zipf] popularity.
   Reads touch only two nodes too, so an outage always leaves bystanders. *)
let synthetic ?(keys = 20) ?(zipf = 0.7) (sc : Scenario.t) =
  Workload.Synthetic.generator
    {
      (Workload.Synthetic.default ~nodes:sc.nodes) with
      Workload.Synthetic.arrival_rate = sc.rate;
      read_ratio = sc.read_ratio;
      fanout = 2;
      keys_per_node = keys;
      zipf_s = zipf;
    }

(* The fault experiments' base: the synthetic mix at 400 txn/s. *)
let outage_base = { Scenario.default with workload = W_synthetic; rate = 400. }

(* A pre-drive callback starting one advancement at [at], and a probe
   telling whether that advancement completed. *)
let advance_at at =
  let adv = ref None in
  let prepare sim e =
    Sim.schedule sim ~delay:at (fun () -> adv := Some (Engine.advance e))
  in
  (prepare, fun () -> Option.fold ~none:false ~some:Simul.Ivar.is_full !adv)

(* The E12–E15 3V run: advancement only on demand over the reliable
   channel, one started at 0.95 s so the scheduled faults land mid-phase,
   the synthetic mix, 6 s of settling and — with [publish] — everything
   published so the settled store replays the history. Returns the run
   and whether that advancement completed. *)
let outage_3v ?(config = Fun.id) ?(publish = false) sc =
  let prepare, completed = advance_at 0.95 in
  let r =
    Scenario.run ~gen:(synthetic sc) ~settle:6.0 ~prepare
      ~config:(fun c ->
        config
          { c with Engine.policy = Policy.Manual; reliable_channel = true })
      sc
  in
  if publish then Scenario.publish r.sim (engine r);
  (r, completed ())

(* Global 2PC under the outage experiments' faults, for comparison. Not a
   [Scenario.run] case: its lock waits get a 0.3 s deadlock timeout, and
   [shim] reaches the baseline's own pause / coordinator-crash injection. *)
let twopc_outage ?(shim = ignore) ~settle (sc : Scenario.t) =
  let sim = Sim.create ~seed:sc.seed () in
  let faults = Option.map (Fault.Injector.create sim) (Scenario.plan sc) in
  let e =
    Global_2pc.create ?faults sim
      {
        (Global_2pc.default_config ~nodes:sc.nodes) with
        Global_2pc.latency = Latency.Exponential 0.003;
        think_time = 0.0005;
        deadlock_timeout = 0.3;
      }
  in
  shim e;
  Runner.drive sim (Global_2pc.packed e) (synthetic sc)
    { Runner.default_setup with seed = sc.seed; duration = sc.duration; settle }

(* Manual versioning at a 0.5 s period on a fresh simulation. Not a
   [Scenario.run] case: E8 needs its latency and safety delay. *)
let manual_versioning ~nodes ~seed ?(latency = Latency.Exponential 0.003)
    ?(safety_delay = 0.2) () =
  let sim = Sim.create ~seed () in
  let cfg =
    { Manual_versioning.nodes; latency; think_time = 0.0005; period = 0.5;
      safety_delay }
  in
  (sim, Manual_versioning.create sim cfg)

(* The read version manual versioning publishes at [now], with its
   publisher down over [down] when given — a pure function of the
   schedule, so no run is needed. *)
let manual_read_version ~nodes ?down now =
  let _, m = manual_versioning ~nodes ~seed:0 () in
  Option.iter
    (fun (at, restart) -> Manual_versioning.inject_coord_crash m ~at ~restart)
    down;
  Manual_versioning.read_version_at m ~now

(* When the first advancement of a run entered phase [k], from its
   coordinator's write-ahead log. *)
let phase_entry r k =
  match
    List.find_opt
      (fun (a, p, _) -> a = 1 && Threev.Coord_log.phase_number p = k)
      (Threev.Coord_log.phase_times (Engine.coord_log (engine r)))
  with
  | Some (_, _, tm) -> tm
  | None -> failwith "reference run missing a phase entry"

(* Cells for the bystanders of an outage on [node] over [from_, until_]:
   transactions submitted in the window that never visit the node — their
   count, commits, read p99 and update-blocking p99. *)
let bystanders (o : Runner.outcome) ~node ~from_ ~until_ =
  let read_h = Histogram.create () and upd_h = Histogram.create () in
  let total = ref 0 and committed = ref 0 in
  List.iter
    (fun ((spec : Spec.t), (res : Result.t)) ->
      let in_window =
        res.Result.submit_time >= from_ && res.Result.submit_time <= until_
      in
      let avoids = not (List.mem node (Spec.nodes spec)) in
      if in_window && avoids then begin
        incr total;
        if Result.committed res then incr committed;
        match spec.Spec.kind with
        | Spec.Read_only -> Histogram.add read_h (Result.latency res)
        | Spec.Commuting | Spec.Non_commuting ->
            Histogram.add upd_h (Result.blocking_latency res)
      end)
    o.Runner.history;
  [ Table.cell_i !total; Table.cell_i !committed; p99 read_h; p99 upd_h ]

(* The replay-determinism verdict on two runs of the same seeds. *)
let replayed a b =
  if Runner.history_digest a = Runner.history_digest b then "identical"
  else "DIFFERENT"

(* --------------------------------------------------------------- T1 *)

let run_t1 ~quick:_ =
  let replay = Table1.run () in
  let checks =
    [
      ("advancement completed (all 4 phases + GC)", replay.Table1.advancement_completed);
      ("read version advanced to 1 everywhere", replay.Table1.read_version_after = 1);
      ("update tx i committed", replay.Table1.txn_i_committed);
      ("update tx j committed", replay.Table1.txn_j_committed);
      ("reads x and y saw only version-0 data", replay.Table1.reads_saw_version0);
      ( "final counters match the paper",
        replay.Table1.final_counters
        = [
            ("C1[p->p]", 1); ("C1[p->q]", 1); ("C1[p->s]", 1); ("C1[q->p]", 1);
            ("C2[q->p]", 1); ("C2[q->q]", 1); ("R1[p->p]", 1); ("R1[p->q]", 1);
            ("R1[p->s]", 1); ("R1[q->p]", 1); ("R2[q->p]", 1); ("R2[q->q]", 1);
          ] );
    ]
  in
  let table = Table.create ~title:"T1 checks" ~columns:[ "check"; "ok" ] in
  List.iter
    (fun (what, ok) -> Table.add_row table [ what; string_of_bool ok ])
    checks;
  "Replay of the paper's Table 1 (example execution sequence, sites p/q/s):\n\n"
  ^ Table1.render_trace replay ^ "\n" ^ Table.to_string table ^ "\n"
  ^ notes
      [
        "Matches the paper: subtx iq performs the dual write on D (versions";
        "1 and 2) but updates E only in version 1; node p learns of the";
        "advancement implicitly from jp; site s is notified only at t=28;";
        "and all request counters equal completion counters at the end.";
      ]

(* --------------------------------------------------------------- F2 *)

let run_f2 ~quick:_ =
  let replay = Table1.run () in
  "Figure 2 version layouts during the Table 1 replay (versions per item;\n\
   vu/vr are the site's update/read versions):\n\n"
  ^ Table1.render_snapshots replay
  ^ notes
      [
        "";
        "Expected shape (paper Figure 2): at t=12 only D has a version-2";
        "copy; at t=20 A and D each hold three simultaneous versions";
        "(0, 1, 2) — the paper's maximum; after advancement and garbage";
        "collection every item is relabelled so only versions >= 1 remain.";
      ]

(* --------------------------------------------------------------- F1 *)

let run_f1 ~quick =
  let sc =
    { Scenario.default with seed = 11; duration = (if quick then 0.5 else 2.0);
      period = 0.1 }
  in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes:sc.nodes) with
        Workload.Hospital.front_end = true;
        read_ratio = 0.3;
        arrival_rate = 400.;
        visit_fanout = 2;
      }
  in
  let row engine =
    let o = (Scenario.run ~gen ~settle:3.0 { sc with engine }).outcome in
    let stale = Runner.staleness o in
    let atom = Runner.atomicity o in
    [
      o.Runner.engine_name;
      Table.cell_i o.Runner.committed;
      Table.cell_f o.Runner.throughput;
      Table.cell_i atom.Checker.Atomicity.partial_reads;
      Table.cell_i atom.Checker.Atomicity.dirty_reads;
      p99 o.Runner.read_latency;
      Printf.sprintf "%.2f" stale.Checker.Staleness.mean_missed;
    ]
  in
  report ~title:"F1: hospital front-end workload (Figure 1)"
    ~columns:
      [
        "engine"; "committed"; "throughput/s"; "partial reads"; "dirty reads";
        "read p99 (ms)"; "missed upd/read";
      ]
    (List.map row [ E_3v; E_nocoord; E_2pc ])
    [
      "";
      "Shape check: only no-coordination shows partial reads (a patient";
      "inquiry observing some but not all of a visit's charges — the §1";
      "anomaly); 3V and global-2PC are clean, but 2PC pays for it in read";
      "tail latency while 3V reads only pay staleness.";
    ]

(* --------------------------------------------------------------- E1 *)

let run_e1 ~quick =
  let row nodes engine =
    let sc =
      {
        Scenario.default with
        engine;
        nodes;
        rate = 150. *. float_of_int nodes;
        seed = 21 + nodes;
        duration = (if quick then 0.5 else 2.0);
        period = (if engine = E_manual then 0.5 else 0.2);
      }
    in
    let o =
      (Scenario.run ~gen:(synthetic ~keys:25 ~zipf:0.9 sc) ~settle:3.0 sc)
        .outcome
    in
    [
      Table.cell_i nodes;
      o.Runner.engine_name;
      Table.cell_i o.Runner.committed;
      Table.cell_i o.Runner.aborted;
      Table.cell_f o.Runner.throughput;
      p50 o.Runner.read_latency;
      p99 o.Runner.read_latency;
      p99 o.Runner.update_blocking;
      partial_reads o;
    ]
  in
  report ~title:"E1: scalability — throughput and latency vs node count"
    ~columns:
      [
        "nodes"; "engine"; "committed"; "aborted"; "throughput/s";
        "read p50 (ms)"; "read p99 (ms)"; "upd-block p99 (ms)"; "partial reads";
      ]
    (List.concat_map
       (fun n -> List.map (row n) [ E_3v; E_nocoord; E_2pc; E_manual ])
       (if quick then [ 2; 4 ] else [ 2; 4; 8; 16 ]))
    [
      "";
      "Shape check (paper §1/§8): 3V tracks no-coordination closely and";
      "scales with node count while staying anomaly-free; global-2PC";
      "commits less under contention (aborts, lock waits) and its read";
      "p99 is far above 3V's; manual versioning matches 3V throughput";
      "but see E8 for its staleness/correctness trade-off.";
    ]

(* --------------------------------------------------------------- E2 *)

let run_e2 ~quick =
  let sc =
    { Scenario.default with seed = 31; duration = (if quick then 0.5 else 2.0);
      period = 0.1 }
  in
  let row rate engine =
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes:sc.nodes) with
          Workload.Hospital.arrival_rate = rate /. 0.75;
          read_ratio = 0.25;
          patients = 10 (* hot patients -> real lock contention *);
          zipf_s = 1.2;
        }
    in
    let o = (Scenario.run ~gen ~settle:3.0 { sc with engine }).outcome in
    let aborted_reads =
      List.length
        (List.filter
           (fun ((spec : Spec.t), res) ->
             spec.Spec.kind = Spec.Read_only && not (Result.committed res))
           o.Runner.history)
    in
    [ Table.cell_f rate; o.Runner.engine_name;
      Table.cell_i (Histogram.count o.Runner.read_latency) ]
    @ hist_cells o.Runner.read_latency
    @ [ Table.cell_i aborted_reads ]
  in
  report ~title:"E2: reads are never delayed — read latency vs update pressure"
    ~columns:
      [
        "update rate/s"; "engine"; "reads"; "read p50 (ms)"; "read p99 (ms)";
        "read max (ms)"; "aborted reads";
      ]
    (List.concat_map
       (fun rate -> [ row rate E_3v; row rate E_2pc ])
       (if quick then [ 200. ] else [ 100.; 400.; 800. ]))
    [
      "";
      "Shape check (§8): 3V read latency is flat in the update rate and";
      "no read ever aborts; under 2PC the read tail grows with update";
      "pressure because inquiries wait behind exclusive locks held across";
      "two-phase commits (and some deadlock-abort).";
    ]

(* --------------------------------------------------------------- E3 *)

let run_e3 ~quick =
  let row period =
    let r =
      Scenario.run ~settle:4.0
        {
          Scenario.default with
          workload = W_calls;
          rate = 500.;
          read_ratio = 0.2;
          seed = 41;
          duration = (if quick then 1.0 else 4.0);
          period;
        }
    in
    let stale = Runner.staleness r.outcome in
    let updates = committed_updates r.outcome in
    let copies = stat r.outcome "store.copies_created" in
    [
      Table.cell_f period;
      Table.cell_i (advancements r);
      ms stale.Checker.Staleness.mean_lag;
      ms stale.Checker.Staleness.max_lag;
      Printf.sprintf "%.3f"
        (if updates = 0 then 0. else float_of_int copies /. float_of_int updates);
      Printf.sprintf "%.2f" stale.Checker.Staleness.mean_missed;
    ]
  in
  report ~title:"E3: advancement period — data currency vs copy overhead"
    ~columns:
      [
        "period (s)"; "advancements"; "mean staleness (ms)";
        "max staleness (ms)"; "copies/update"; "missed upd/read";
      ]
    (List.map row
       (if quick then [ 0.1; 0.5 ] else [ 0.05; 0.1; 0.2; 0.5; 1.0; 2.0 ]))
    [
      "";
      "Shape check (§7): the user trades currency for update performance —";
      "staleness grows roughly linearly with the advancement period while";
      "copy-on-write cost per update falls (copying happens once per item";
      "per advancement, so fewer advancements = fewer copies).";
    ]

(* --------------------------------------------------------------- E4 *)

let run_e4 ~quick =
  let row (nodes, period, rate) =
    let r =
      Scenario.run ~settle:3.0
        ~config:(fun c -> { c with Engine.poll_interval = period /. 4. })
        {
          Scenario.default with
          nodes;
          rate;
          read_ratio = 0.2;
          seed = 51;
          duration = (if quick then 1.0 else 2.0);
          period;
        }
    in
    let maxv = Engine.max_versions_ever (engine r) in
    [
      Table.cell_i nodes;
      Table.cell_f period;
      Table.cell_f rate;
      Table.cell_i (advancements r);
      Table.cell_i maxv;
      string_of_bool (maxv <= 3);
    ]
  in
  report ~title:"E4: at most three versions of any item (paper §4.4, 2a)"
    ~columns:
      [
        "nodes"; "adv period (s)"; "rate/s"; "advancements"; "max versions";
        "bound holds";
      ]
    (List.map row
       (if quick then [ (4, 0.02, 1000.) ]
        else
          [ (2, 0.02, 600.); (4, 0.02, 1200.); (8, 0.01, 2400.); (4, 0.005, 1200.) ]))
    [
      "";
      "Back-to-back advancements with stochastic message delays never push";
      "any item past three simultaneous versions, because an advancement";
      "instance only completes after every node acknowledged garbage";
      "collection of the version it retired.";
    ]

(* --------------------------------------------------------------- E5 *)

let run_e5 ~quick =
  let row nc_ratio engine =
    (* NC3V runs even at ratio 0, where commute locks never conflict. *)
    let o =
      (Scenario.run ~settle:3.0
         ~config:(fun c ->
           { c with Engine.nc_mode = true; deadlock_timeout = 0.05 })
         {
           Scenario.default with
           engine;
           workload = W_pos;
           rate = 400.;
           read_ratio = 0.2;
           nc_ratio;
           seed = 61;
           duration = (if quick then 0.5 else 2.0);
         })
        .outcome
    in
    [
      Printf.sprintf "%.2f" nc_ratio;
      o.Runner.engine_name;
      Table.cell_i o.Runner.committed;
      Table.cell_i o.Runner.aborted;
      Table.cell_f o.Runner.throughput;
      p99 o.Runner.update_blocking;
      partial_reads o;
    ]
  in
  report ~title:"E5: graceful handling of non-commuting updates (NC3V, §5)"
    ~columns:
      [
        "nc ratio"; "engine"; "committed"; "aborted"; "throughput/s";
        "upd-block p99 (ms)"; "partial reads";
      ]
    (List.concat_map
       (fun nc -> [ row nc E_3v; row nc E_2pc ])
       (if quick then [ 0.; 0.1 ] else [ 0.; 0.05; 0.1; 0.25; 0.5 ]))
    [
      "";
      "Shape check (§5/§8): at nc=0 commute locks never conflict, so 3V";
      "keeps its full throughput; as the non-commuting fraction grows,";
      "only the non-commuting minority pays 2PC/lock costs (some abort by";
      "the version-overtake rule or deadlock timeout) while reads stay";
      "anomaly-free. Global-2PC makes every transaction pay that cost.";
    ]

(* --------------------------------------------------------------- E6 *)

let run_e6 ~quick =
  let row (period, rate) =
    let gen =
      Workload.Hospital.generator
        {
          (Workload.Hospital.default ~nodes:4) with
          Workload.Hospital.arrival_rate = rate;
          read_ratio = 0.1;
          visit_fanout = 3;
        }
    in
    let o =
      (Scenario.run ~gen ~settle:3.0
         ~config:(fun c -> { c with Engine.latency = Latency.Exponential 0.01 })
         { Scenario.default with seed = 71;
           duration = (if quick then 1.0 else 3.0); period })
        .outcome
    in
    let writes = committed_writes o in
    let dual = stat o "store.dual_writes_total" in
    let copies = stat o "store.copies_created" in
    [
      Table.cell_f period;
      Table.cell_f rate;
      Table.cell_i writes;
      Table.cell_i dual;
      Table.cell_pct dual writes;
      Table.cell_i copies;
      Printf.sprintf "%.3f"
        (if writes = 0 then 0. else float_of_int copies /. float_of_int writes);
    ]
  in
  report
    ~title:
      "E6: dual-write overhead occurs only under advancement contention \
       (§2.3)"
    ~columns:
      [
        "adv period (s)"; "rate/s"; "writes"; "dual writes"; "dual %";
        "copies"; "copies/write";
      ]
    (List.map row
       (if quick then [ (0.1, 500.) ]
        else
          [ (0.05, 500.); (0.2, 500.); (1.0, 500.); (0.05, 2000.); (0.2, 2000.) ]))
    [
      "";
      "Shape check (§2.3): executing against both copies happens only when";
      "a straggler subtransaction hits an item that already has a newer";
      "copy — a tiny fraction of writes, growing with advancement";
      "frequency and in-flight transactions, and exactly the case that";
      "would have blocked the transaction in an ordinary system.";
    ]

(* --------------------------------------------------------------- E7 *)

let run_e7 ~quick =
  let row policy =
    let r =
      Scenario.run ~settle:3.0
        ~config:(fun c -> { c with Engine.policy })
        { Scenario.default with rate = 600.; seed = 81;
          duration = (if quick then 0.5 else 3.0) }
    in
    let o = r.outcome in
    [
      Format.asprintf "%a" Policy.pp policy;
      Table.cell_i (advancements r);
      Table.cell_f o.Runner.throughput;
      p50 o.Runner.read_latency;
      p99 o.Runner.read_latency;
      p50 o.Runner.update_blocking;
      p99 o.Runner.update_blocking;
    ]
  in
  report
    ~title:
      "E7: version advancement is asynchronous — user latency with and \
       without advancement churn (§8)"
    ~columns:
      [
        "policy"; "advancements"; "throughput/s"; "read p50 (ms)";
        "read p99 (ms)"; "upd-block p50 (ms)"; "upd-block p99 (ms)";
      ]
    (List.map row
       [
         Policy.Manual; Policy.Periodic 0.25; Policy.Periodic 0.05;
         Policy.Every_n_updates 50; Policy.Divergence 2000.;
       ])
    [
      "";
      "Shape check (§8): user-transaction latencies are statistically";
      "indistinguishable whether advancement never runs or runs";
      "continuously — the advancement traffic (notifications and counter";
      "polls) shares the network but no user transaction ever waits on it.";
    ]

(* --------------------------------------------------------------- E8 *)

let run_e8 ~quick =
  let nodes = 4 and seed = 91 in
  let duration = if quick then 2.0 else 6.0 in
  (* Bounded jitter, scaled so that (like a real deployment) the period is
     much longer than any single message: the worst-case straggler is a few
     tens of ms, so a "safe" manual delay must exceed that — while 3V needs
     no such tuning. *)
  let straggler_latency = Latency.Uniform (0.0005, 0.012) in
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes) with
        Workload.Hospital.arrival_rate = 800.;
        read_ratio = 0.4;
        patients = 25;
        visit_fanout = 3;
        post_delay = 0.08;
      }
  in
  let manual safety_delay =
    let sim, m =
      manual_versioning ~nodes ~seed ~latency:straggler_latency ~safety_delay ()
    in
    Runner.drive sim (Manual_versioning.packed m) gen
      { Runner.default_setup with seed; duration; settle = 4.0 }
  in
  let threev period =
    (Scenario.run ~gen ~settle:4.0
       ~config:(fun c -> { c with Engine.latency = straggler_latency })
       { Scenario.default with seed; duration; period })
      .outcome
  in
  let row (scheme, delay, o) =
    let stale = Runner.staleness o in
    [
      scheme; delay; partial_reads o;
      ms stale.Checker.Staleness.mean_lag; ms stale.Checker.Staleness.max_lag;
    ]
  in
  (* The paper: the delay "is usually set conservatively high" — we sweep
     from reckless (0) to conservative (a full period). *)
  let delays = if quick then [ 0.0; 0.1 ] else [ 0.0; 0.005; 0.02; 0.05; 0.1 ] in
  report
    ~title:
      "E8: manual versioning — safety delay vs correctness and staleness (§1)"
    ~columns:
      [
        "scheme"; "safety delay (s)"; "partial reads"; "mean staleness (ms)";
        "max staleness (ms)";
      ]
    (List.map row
       (List.map (fun d -> ("manual", Table.cell_f d, manual d)) delays
       @ List.map
           (fun p -> (Printf.sprintf "3v (periodic %gs)" p, "n/a", threev p))
           [ 0.5; 0.05 ]))
    [
      "";
      "Shape check (§1): with a small safety delay, manual versioning";
      "returns partial charges (incorrect); correctness needs a delay";
      "sized to the worst-case straggler, which piles staleness on top of";
      "the period. 3V is always correct with no delay to tune, and";
      "because advancement is free it can simply run shorter periods";
      "(last row) for much fresher reads than any safe manual setting.";
    ]

(* --------------------------------------------------------------- E9 *)

(* The paper's asynchrony claim has a cost side: the advancement exchanges
   notifications, acks, counter polls and GC notices. E9 measures that
   traffic as a fraction of all remote messages, across advancement
   frequencies — it should stay small and independent of transaction rate. *)
let run_e9 ~quick =
  let run policy =
    let r =
      Scenario.run ~settle:3.0
        ~config:(fun c -> { c with Engine.policy })
        {
          Scenario.default with
          nodes = 6;
          workload = W_calls;
          rate = 800.;
          read_ratio = 0.2;
          seed = 141;
          duration = (if quick then 1.0 else 4.0);
        }
    in
    ( r.outcome.Runner.committed,
      stat r.outcome "net.remote_messages",
      advancements r )
  in
  let base_committed, base_msgs, _ = run Policy.Manual in
  let row period =
    let committed, msgs, advs = run (Policy.Periodic period) in
    let extra = msgs - base_msgs in
    [
      Printf.sprintf "periodic %gs" period;
      Table.cell_i advs;
      Table.cell_i msgs;
      Printf.sprintf "%.2f" (float_of_int msgs /. float_of_int committed);
      Table.cell_i extra;
      Table.cell_pct extra msgs;
    ]
  in
  report ~title:"E9: message cost of asynchronous advancement"
    ~columns:
      [
        "policy"; "advancements"; "remote msgs"; "msgs/txn";
        "advancement msgs"; "overhead";
      ]
    ([
       "manual (none)"; "0"; Table.cell_i base_msgs;
       Printf.sprintf "%.2f"
         (float_of_int base_msgs /. float_of_int base_committed);
       "0"; "0.0%";
     ]
    :: List.map row (if quick then [ 0.2 ] else [ 0.5; 0.2; 0.05 ]))
    [
      "";
      "Shape check: advancement costs a fixed ~90 messages per round";
      "(notify/ack, two quiescence phases of counter polls, GC + ack) —";
      "independent of the transaction rate, so its share shrinks as the";
      "system gets busier and is negligible at realistic frequencies";
      "(the paper's 'every hour' would be ~0.001%). Even at the absurd";
      "20-advancements-per-second point none of this traffic is on any";
      "user transaction's critical path (E7).";
    ]

(* -------------------------------------------------------------- E10 *)

(* The sharpest form of the §8 no-remote-delay claim: freeze one node for a
   full second mid-run. Transactions that never touch the frozen node must
   be completely unaffected under 3V — even though an advancement stalls
   mid-phase behind the frozen node's acks — while under global 2PC the
   freeze cascades: multi-node transactions stuck on the frozen node hold
   locks at healthy nodes, delaying (and deadlock-aborting) transactions
   that never go near it. *)
let run_e10 ~quick =
  let outage_start = 1.0 and outage = 1.0 and paused = 3 in
  let sc =
    { outage_base with rate = 600.; seed = 151;
      duration = (if quick then 2.5 else 4.0) }
  in
  let threev ~outage_on =
    let prepare _ e =
      if outage_on then
        Engine.inject_pause e ~node:paused ~at:outage_start ~duration:outage
    in
    (Scenario.run ~gen:(synthetic sc) ~settle:4.0 ~prepare sc).outcome
  in
  let twopc ~outage_on =
    twopc_outage ~settle:4.0 sc ~shim:(fun e ->
        if outage_on then
          Global_2pc.inject_pause e ~node:paused ~at:outage_start
            ~duration:outage)
  in
  let row (name, outage_on, (o : Runner.outcome)) =
    (name :: (if outage_on then "1s" else "none")
     :: bystanders o ~node:paused ~from_:outage_start
          ~until_:(outage_start +. outage))
    @ [
        Table.cell_f (Stats.Series.max_y o.Runner.in_flight);
        Table.cell_i o.Runner.unfinished;
      ]
  in
  let paused_3v = threev ~outage_on:true in
  report
    ~title:
      "E10: one node frozen for 1s — impact on transactions that never \
       touch it"
    ~columns:
      [
        "engine"; "outage"; "bystander txns"; "committed"; "read p99 (ms)";
        "upd-block p99 (ms)"; "peak in-flight"; "unfinished";
      ]
    (List.map row
       [
         ("3v", false, threev ~outage_on:false);
         ("3v", true, paused_3v);
         ("global-2pc", false, twopc ~outage_on:false);
         ("global-2pc", true, twopc ~outage_on:true);
       ])
    [
      (* The outage run's in-flight timeline makes the backlog visible: it
         balloons while the node is frozen and drains right after. *)
      "";
      Printf.sprintf "3v in-flight transactions over time (outage at %gs):"
        outage_start;
      "[" ^ Stats.Series.sparkline paused_3v.Runner.in_flight ~buckets:60 ^ "]";
      "";
      "Shape check (§8): under 3V, bystander transactions — submitted";
      "during the outage, never visiting the frozen node — keep exactly";
      "their no-outage latency profile, even though a version advancement";
      "is stalled mid-phase waiting for the frozen node. Under global";
      "2PC, transactions stuck on the frozen node keep exclusive locks";
      "at healthy nodes, so bystanders that share a hot patient block or";
      "abort: the outage spreads through the lock graph.";
    ]

(* --------------------------------------------------------------- E11 *)

(* E11: uniform message loss. With the reliable channel on (per-link
   sequence numbers, acks, timeout retransmission, receive-side dedup) the
   protocol must stay correct and keep completing advancements under loss
   — and because no user transaction ever waits for a remote event (§8),
   user-blocking latency must keep its lossless profile. *)
let run_e11 ~quick =
  let sc =
    { outage_base with seed = 161; duration = (if quick then 1.5 else 3.0);
      fault_seed = 1611 }
  in
  let baseline = ref 1. in
  let row drop =
    let r =
      Scenario.run ~gen:(synthetic sc) ~settle:6.0
        ~config:(fun c -> { c with Engine.reliable_channel = true })
        { sc with atoms = (if drop = 0. then [] else [ Loss drop; Dup 0.01 ]) }
    in
    let o = r.outcome in
    let p99_upd = Histogram.percentile o.Runner.update_blocking 99. in
    if drop = 0. then baseline := Float.max p99_upd 1e-9;
    [
      Printf.sprintf "%g%%" (100. *. drop);
      Table.cell_i o.Runner.committed;
      Table.cell_i (advancements r);
      partial_reads o;
      Table.cell_i (Engine.max_versions_ever (engine r));
      Printf.sprintf "%s (x%.2f)" (ms p99_upd) (p99_upd /. !baseline);
      p99 o.Runner.read_blocking;
      Table.cell_i (stat o "net.retransmissions");
      Table.cell_i (stat o "fault.drops");
      Table.cell_i o.Runner.unfinished;
    ]
  in
  report
    ~title:
      "E11: uniform message loss — retransmission keeps 3V correct and user \
       latency flat"
    ~columns:
      [
        "loss"; "committed"; "advancements"; "partial reads"; "max versions";
        "upd-block p99 (ms)"; "read-block p99 (ms)"; "retransmits"; "drops";
        "unfinished";
      ]
    (List.map row (if quick then [ 0.; 0.05 ] else [ 0.; 0.01; 0.05; 0.1 ]))
    [
      "";
      "Shape check: at every loss rate the history stays anomaly-free,";
      "advancement keeps completing (lost phase messages and poll replies";
      "are retransmitted), items never exceed three versions, and the";
      "user-blocking p99 stays at the lossless profile (x1.0-ish): user";
      "transactions block only on local work, so loss costs bandwidth";
      "(retransmits), never user latency. The fault RNG is separate from";
      "the workload RNG, so rows differ only in the injected faults.";
    ]

(* --------------------------------------------------------------- E12 *)

(* E12: a node crashes mid-advancement and restarts one second later,
   recovering its volatile version registers from durable state (store GC
   floor + counters) and catching up via the paper's late-node rule. Under
   3V, bystander transactions — submitted during the outage, never
   touching the crashed node — are unaffected; under Global-2PC the crash
   spreads through the lock graph and there is no recovery path. *)
let run_e12 ~quick =
  let crashed = 3 and crash_at = 1.0 and restart_at = 2.0 in
  let sc =
    { outage_base with seed = 163; duration = (if quick then 2.5 else 4.0);
      fault_seed = 1212 }
  in
  let crash_sc =
    { sc with atoms = [ Crash (crashed, crash_at, restart_at) ] }
  in
  let row (name, (sc : Scenario.t), (o : Runner.outcome)) =
    (name :: (if sc.atoms = [] then "none" else "1s")
     :: bystanders o ~node:crashed ~from_:crash_at ~until_:restart_at)
    @ [ Table.cell_i o.Runner.unfinished ]
  in
  let healthy, _ = outage_3v sc in
  let crash, completed = outage_3v crash_sc in
  let replay, _ = outage_3v crash_sc in
  let e = engine crash in
  report ~title:"E12: node crash during advancement — 3V recovery vs Global-2PC"
    ~columns:
      [
        "engine"; "crash"; "bystander txns"; "committed"; "read p99 (ms)";
        "upd-block p99 (ms)"; "unfinished";
      ]
    (List.map row
       [
         ("3v", sc, healthy.outcome);
         ("3v", crash_sc, crash.outcome);
         ("global-2pc", sc, twopc_outage ~settle:6.0 sc);
         ("global-2pc", crash_sc, twopc_outage ~settle:6.0 crash_sc);
       ])
    [
      "";
      Printf.sprintf
        "3v crash case: advancement started at 0.95s %s; crashed node n%d \
         ended at vu=%d vr=%d, healthy n0 at vu=%d vr=%d."
        (if completed then "completed despite the crash" else "NEVER completed")
        crashed
        (Engine.update_version e ~node:crashed)
        (Engine.read_version e ~node:crashed)
        (Engine.update_version e ~node:0)
        (Engine.read_version e ~node:0);
      Printf.sprintf
        "replay determinism: two runs with the same seeds produced %s \
         histories."
        (replayed crash.outcome replay.outcome);
      "";
      "Shape check: under 3V the crashed node loses its volatile vu/vr,";
      "recovers them from durable state (store GC floor + counters) at";
      "restart, and the retransmitted phase messages plus the late-node";
      "rule bring it back in sync — the advancement still completes and";
      "bystanders keep their no-crash latency profile. Global-2PC has no";
      "recovery path: transactions touching the crashed node hold locks";
      "at healthy nodes, so the crash spreads and work is lost.";
    ]

(* --------------------------------------------------------------- E13 *)

(* E13: coordinator fail-stop crash in each of the four advancement phases.
   The no-crash run's write-ahead log supplies the phase-entry times, so
   each case's crash provably lands inside its target phase (the runs are
   byte-identical up to the crash instant). The restarted coordinator
   replays its WAL, bumps its poll epoch and re-drives the in-flight phase;
   node-side idempotence absorbs the re-driven messages. A final case wedges
   phase 1 by cutting the coordinator's link to n0 over the phase-1
   broadcast, with no channel retransmission — only the stall watchdog's
   re-broadcast can resolve it. *)
let run_e13 ~quick =
  let nodes = 4 in
  let sc =
    { outage_base with seed = 171; duration = (if quick then 2.0 else 3.0);
      fault_seed = 1713 }
  in
  let ((healthy, _) as no_crash) = outage_3v sc in
  let entry = phase_entry healthy in
  (* Inside phase k: midway to the next phase's entry. Phase 4's entry is
     logged after its quiescence wait (see Coord_log), so land in the
     gc-ack exchange just after it. *)
  let crash_time k =
    if k < 4 then (entry k +. entry (k + 1)) /. 2. else entry 4 +. 0.002
  in
  let crash_sc k =
    let at = crash_time k in
    { sc with atoms = [ Coord_crash (at, at +. 0.3) ] }
  in
  let crashes =
    List.map (fun k -> (k, outage_3v (crash_sc k))) [ 1; 2; 3; 4 ]
  in
  let replay, _ = outage_3v (crash_sc 2) in
  (* Watchdog: the link cut drops the phase-1 broadcast to n0 — the
     watchdog's resend at 0.95 + 0.06 s falls after it heals — with channel
     retransmission off (ablation A4's wedge), so only the per-phase
     deadline can repair it. *)
  let ((wedged, _) as watchdog) =
    outage_3v
      ~config:(fun c -> { c with Engine.retransmit = false })
      { sc with phase_deadline = 0.06; fault_seed = 1714;
        atoms = [ Partition (nodes, 0, 0.9, 1.0) ] }
  in
  let row (name, crash_at, ((r : Scenario.run), completed)) =
    let o = r.outcome in
    [
      name;
      (match crash_at with Some a -> Printf.sprintf "%.3fs" a | None -> "-");
      Printf.sprintf "%d%s" (advancements r)
        (if completed then "" else " (wedged)");
      Table.cell_i (stat o "proto.coord_recoveries");
      Table.cell_i (stat o "proto.phase_stalled");
      Table.cell_i o.Runner.committed;
      Table.cell_i o.Runner.unfinished;
      partial_reads o;
      Table.cell_i (Engine.max_versions_ever (engine r));
    ]
  in
  (* Baseline comparison through the same inject_coord_crash surface. *)
  let twopc =
    let at = crash_time 2 in
    twopc_outage ~settle:6.0 sc ~shim:(fun e ->
        Global_2pc.inject_coord_crash e ~at ~restart:(at +. 0.3))
  in
  let all_recovered =
    List.for_all
      (fun (_, ((r : Scenario.run), c)) ->
        c && r.outcome.Runner.unfinished = 0
        && (Runner.atomicity r.outcome).Checker.Atomicity.partial_reads = 0)
      crashes
  in
  report ~title:"E13: coordinator crash tolerance — WAL resume in every phase"
    ~columns:
      [
        "case"; "crash at"; "advancements"; "recoveries"; "stalls";
        "committed"; "unfinished"; "partial reads"; "max vers";
      ]
    (List.map row
       ((("no crash", None, no_crash)
        :: List.map
             (fun (k, run) ->
               (Printf.sprintf "crash in phase %d" k, Some (crash_time k), run))
             crashes)
       @ [ ("stalled phase 1 + watchdog", None, watchdog) ]))
    [
      "";
      Printf.sprintf
        "crash-phase sweep: advancement %s after every single-phase crash \
         (restart +0.3s), with zero checker anomalies."
        (if all_recovered then "completed" else "FAILED to complete");
      Printf.sprintf
        "replay determinism: two phase-2-crash runs with the same seeds \
         produced %s histories."
        (replayed (fst (List.assoc 2 crashes)).outcome replay.outcome);
      Printf.sprintf
        "watchdog: %d stall(s) recorded; the re-broadcast resolved a wedge \
         that channel retransmission (off) could not."
        (stat wedged.outcome "proto.phase_stalled");
      Printf.sprintf
        "global-2pc under the same crash window (its coordination site, node \
         0): %d committed, %d unfinished — no WAL, no re-drive; work rooted \
         at the crashed site is simply lost."
        twopc.Runner.committed twopc.Runner.unfinished;
      Printf.sprintf
        "manual versioning, publisher down [1.0s, 3.0s): at 2.9s reads still \
         use version %d (vs %d had the publisher stayed up) — frozen for the \
         whole window, snapping to %d at restart (staleness grows linearly, \
         unbounded by any protocol)."
        (manual_read_version ~nodes ~down:(1.0, 3.0) 2.9)
        (manual_read_version ~nodes 2.9)
        (manual_read_version ~nodes ~down:(1.0, 3.0) 3.0);
      "";
      "Shape check: the WAL records every phase entry before its first";
      "message, nodes treat re-driven phase messages idempotently, and";
      "counter polls are namespaced by restart epoch — so a coordinator";
      "crash in any phase costs only the outage window, never correctness.";
    ]

(* --------------------------------------------------------------- E14 *)

(* All five checkers over a finished, published run: the 1SR certifier,
   atomic visibility, the exact version-read oracle, final-store replay —
   counted as anomalies — and the staleness measurement. *)
let certified (r : Scenario.run) =
  let history = r.outcome.Runner.history in
  ( (Scenario.certify ~engine:(engine r) history).anomalies,
    Checker.Staleness.measure history )

(* E14: k-way replication under data-node crashes. Six nodes in two
   replica groups of three; the fault-free k=3 run's WAL supplies the
   phase-entry times so the crash of k-1 replicas of group 0 provably
   lands mid-advancement (inside phase 2's quiescence wait). The quorum
   poll excuses the crashed replicas' mirror traffic, reads fail over to
   the surviving replica, and the recovered replicas serve reads again
   only after the readable-after-recovery gate reopens. All five checkers
   certify the crash history; Global-2PC under the same crash plan
   strands the same workload (no failover target exists). *)
let run_e14 ~quick =
  let nodes = 6 and k = 3 and crash_keep = 1 in
  let sc =
    { outage_base with nodes; replicas = k; seed = 191;
      duration = (if quick then 2.0 else 3.0); fault_seed = 1911 }
  in
  let k1 = outage_3v ~publish:true { sc with replicas = 1 } in
  let ((healthy, _) as k3) = outage_3v ~publish:true sc in
  let crash_at = (phase_entry healthy 2 +. phase_entry healthy 3) /. 2. in
  let restart_at = crash_at +. 0.5 in
  (* [Data_crash] downs all but one ([crash_keep]) replica of the group. *)
  let crash_sc = { sc with atoms = [ Data_crash (0, crash_at, restart_at) ] } in
  let ((crash, completed) as crashed) = outage_3v ~publish:true crash_sc in
  (* Replay determinism: the crash case must reproduce bit-for-bit. *)
  let replay, _ = outage_3v ~publish:true crash_sc in
  let k1_checks = certified (fst k1) in
  let ((_, stale_base) as k3_checks) = certified healthy in
  let ((anomalies, stale) as crash_checks) = certified crash in
  (* Staleness stays bounded: the crash can add at most the outage window
     (plus advancement/settle slack) to the worst-case read lag. *)
  let lag_bound =
    stale_base.Checker.Staleness.max_lag +. (restart_at -. crash_at) +. 1.0
  in
  let row (name, ((r : Scenario.run), completed), (anomalies, stale)) =
    let o = r.outcome in
    [
      name;
      Printf.sprintf "%d%s" (advancements r)
        (if completed then "" else " (wedged)");
      Table.cell_i (stat o "repl.failovers");
      Table.cell_i (stat o "repl.mirrors");
      Table.cell_i (stat o "repl.recoveries");
      Table.cell_i o.Runner.committed;
      Table.cell_i o.Runner.unfinished;
      Table.cell_i anomalies;
      ms stale.Checker.Staleness.max_lag;
    ]
  in
  (* Global-2PC under the same data-node crash plan: no replica group to
     fail over to, so work touching the crashed nodes strands. *)
  let twopc = twopc_outage ~settle:6.0 crash_sc in
  let down = (crash_at, crash_at +. 2.0) and probe = crash_at +. 1.9 in
  report ~title:"E14: k-way replication — quorum advancement, failover, recovery"
    ~columns:
      [
        "case"; "advancements"; "failovers"; "mirrors"; "recoveries";
        "committed"; "unfinished"; "anomalies"; "max lag (ms)";
      ]
    (List.map row
       [
         ("k=1, fault-free", k1, k1_checks);
         ("k=3, fault-free", k3, k3_checks);
         ( Printf.sprintf "k=3, %d replicas down mid-advancement"
             (k - crash_keep),
           crashed,
           crash_checks );
       ])
    [
      "";
      Printf.sprintf
        "quorum advancement: the mid-phase-2 crash of %d of %d replicas \
         (group 0, [%.3fs, %.3fs)) %s — the poll completed on the surviving \
         replica, deferring only mirror traffic owed to the crashed ones."
        (k - crash_keep) k crash_at restart_at
        (if completed && advancements crash >= 1 then
           "did not block version advancement"
         else "BLOCKED version advancement");
      Printf.sprintf
        "checkers: %d anomalies across 1SR certification, atomic visibility, \
         exact version reads and final-store replay%s."
        anomalies
        (if anomalies = 0 then " — crash history certifies clean"
         else " — VIOLATIONS");
      Printf.sprintf
        "read staleness stayed bounded: max lag %.1f ms under the crash vs \
         %.1f ms fault-free (bound: outage + slack = %.1f ms) — %s."
        (1000. *. stale.Checker.Staleness.max_lag)
        (1000. *. stale_base.Checker.Staleness.max_lag)
        (1000. *. lag_bound)
        (if stale.Checker.Staleness.max_lag <= lag_bound then "within bound"
         else "EXCEEDED");
      Printf.sprintf
        "replay determinism: two crash runs with the same seeds produced %s \
         histories."
        (replayed crash.outcome replay.outcome);
      Printf.sprintf
        "recovery: %d replica recoveries; a recovered replica serves reads \
         again only after its catch-up backlog drains and a quiescence round \
         certifies its frontier version (readable-after-recovery)."
        (stat crash.outcome "repl.recoveries");
      Printf.sprintf
        "global-2pc under the same crash plan: %d committed, %d unfinished — \
         the crashed nodes' locks and in-flight votes strand work at healthy \
         nodes; there is no replica to fail over to."
        twopc.Runner.committed twopc.Runner.unfinished;
      Printf.sprintf
        "manual versioning has no failover either: with its version \
         publisher down for 2s, reads still use version %d at the end of the \
         outage (vs %d healthy) — staleness grows with the outage, unbounded \
         by any protocol."
        (manual_read_version ~nodes ~down probe)
        (manual_read_version ~nodes probe);
      "";
      "Shape check: commuting updates mirror to every live group member";
      "through the ordinary counter matrices, so quiescence (R = C)";
      "already waits for mirrors; the quorum rule only excuses counter";
      "traffic owed to crashed replicas, never genuine subtransactions.";
    ]

(* --------------------------------------------------------------- E15 *)

(* E15: oracle-free liveness. Same six-node, two-group k=3 shape as E14,
   but every liveness decision — read failover, quorum participation,
   watchdog excusal — comes from the heartbeat failure detector instead of
   the fault injector's ground truth. Four cases: fault-free reference
   (whose WAL places the crash), a real replica crash the detector has to
   notice, the acceptance shape — that crash compounded with a
   false-suspicion storm (heartbeat loss on a live node of the healthy
   group, protocol traffic untouched) — and a one-way partition that cuts
   a node's outbound links only. Safety obligations: (a) a
   falsely-suspected live node never breaks advancement — its late counter
   replies fold in idempotently and all five checkers stay clean; (b) an
   undetected outage degrades to the watchdog/retransmit path rather than
   wedging. *)
let run_e15 ~quick =
  let k = 3 and crash_keep = 1 in
  let hb_period = 0.02 and hb_timeout = 0.08 in
  let sc =
    {
      outage_base with
      nodes = 6;
      replicas = k;
      seed = 211;
      duration = (if quick then 2.0 else 3.0);
      fault_seed = 2111;
      hb_period;
      hb_timeout;
      (* The watchdog is the degradation path for outages the detector has
         not (yet) noticed, so it stays armed. *)
      phase_deadline = 0.5;
    }
  in
  (* Fault-free reference: its WAL supplies the phase-entry times so the
     crash provably lands inside phase 2's quiescence wait. *)
  let ((healthy, _) as reference) = outage_3v ~publish:true sc in
  let crash_at = (phase_entry healthy 2 +. phase_entry healthy 3) /. 2. in
  let restart_at = crash_at +. 0.5 in
  let crash = Scenario.Data_crash (0, crash_at, restart_at) in
  (* The acceptance shape: the same real crash plus a heartbeat-loss storm
     on a live node of the {e healthy} group, overlapping the crash window
     — the detector now faces a real outage and a lie at the same time. *)
  let storm_node = k in
  let storm_sc =
    { sc with
      atoms =
        [
          Hb_loss (storm_node, crash_at -. 0.1, restart_at +. 0.3, 1.); crash;
        ] }
  in
  let ((crashed, completed) as crash_case) =
    outage_3v ~publish:true { sc with atoms = [ crash ] }
  in
  let ((storm, _) as storm_case) = outage_3v ~publish:true storm_sc in
  (* One-way partition: one healthy-group node keeps hearing the cluster
     but is never heard (outbound-only cut, heartbeats included). *)
  let ((oneway, _) as oneway_case) =
    outage_3v ~publish:true
      { sc with
        atoms =
          [ Partition_set ([ storm_node ], crash_at, crash_at +. 0.3, true) ] }
  in
  (* The storm run — real crash and a lied-about live node at once — must
     replay bit-for-bit. *)
  let replay, _ = outage_3v ~publish:true storm_sc in
  let ref_checks = certified healthy and crash_checks = certified crashed in
  let ((storm_anoms, _) as storm_checks) = certified storm in
  let ((oneway_anoms, _) as oneway_checks) = certified oneway in
  let row (name, ((r : Scenario.run), completed), (anomalies, stale)) =
    let o = r.outcome in
    [
      name;
      Printf.sprintf "%d%s" (advancements r)
        (if completed then "" else " (wedged)");
      Table.cell_i (stat o "fd.suspicions");
      Table.cell_i (stat o "fd.confirmed");
      Table.cell_i (stat o "fd.recoveries");
      Table.cell_i (stat o "repl.failovers");
      Table.cell_i o.Runner.committed;
      Table.cell_i o.Runner.unfinished;
      Table.cell_i anomalies;
      ms stale.Checker.Staleness.max_lag;
    ]
  in
  let so = storm.outcome in
  let replay_ok =
    Runner.history_digest so = Runner.history_digest replay.outcome
  in
  let full_commit =
    so.Runner.unfinished = 0 && so.Runner.committed > 0
    && so.Runner.committed + so.Runner.aborted = so.Runner.submitted
  in
  report
    ~title:
      "E15: oracle-free liveness — heartbeat detection, suspicion, watchdog"
    ~columns:
      [
        "case"; "advancements"; "suspicions"; "confirmed"; "recoveries";
        "failovers"; "committed"; "unfinished"; "anomalies"; "max lag (ms)";
      ]
    (List.map row
       [
         ("k=3, fd on, fault-free", reference, ref_checks);
         ( Printf.sprintf "k=3, %d replicas down (detected)" (k - crash_keep),
           crash_case,
           crash_checks );
         ("k=3, crash + false-suspicion storm", storm_case, storm_checks);
         ("k=3, one-way partition (outbound cut)", oneway_case, oneway_checks);
       ])
    [
      "";
      Printf.sprintf
        "liveness without the oracle: every routing, quorum and watchdog \
         decision above came from heartbeat suspicion (period %gs, base \
         horizon %gs); the fault plan is invisible to the protocol."
        hb_period hb_timeout;
      Printf.sprintf
        "real crash: the detector suspected the %d crashed replicas (%d \
         suspicions, %d escalated to confirmed-down before their restart \
         re-earned trust), advancement %s."
        (k - crash_keep)
        (stat crashed.outcome "fd.suspicions")
        (stat crashed.outcome "fd.confirmed")
        (if completed then "completed past the outage" else "WEDGED");
      Printf.sprintf
        "false-suspicion storm: node %d stayed alive while its heartbeats \
         were dropped; its late counter replies folded in idempotently — %d \
         committed, %d unfinished, %d anomalies across all five checkers%s."
        storm_node so.Runner.committed so.Runner.unfinished storm_anoms
        (if storm_anoms = 0 && full_commit then
           " — the full workload commits clean (obligation a)"
         else " — VIOLATIONS");
      Printf.sprintf
        "one-way partition: outbound-only silence still earns suspicion (%d \
         suspicions) because evidence, not reachability, drives the \
         detector; %d anomalies."
        (stat oneway.outcome "fd.suspicions")
        oneway_anoms;
      Printf.sprintf
        "replay determinism: two storm runs with the same seeds produced %s \
         histories%s."
        (if replay_ok then "identical" else "DIFFERENT")
        (if replay_ok then
           " — the detector is deterministic from the sim clock"
         else "");
      Printf.sprintf
        "fault-free cost: %d heartbeats for %d suspicions — a quiet detector \
         is pure overhead, measured at ~%d messages/advancement in \
         BENCH_fd.json (fd-smoke gates it)."
        (stat healthy.outcome "fd.heartbeats_sent")
        (stat healthy.outcome "fd.suspicions")
        (stat healthy.outcome "fd.heartbeats_sent"
        / max 1 (advancements healthy));
      (if
         List.for_all
           (fun (anomalies, _) -> anomalies = 0)
           [ ref_checks; crash_checks; storm_checks; oneway_checks ]
       then
         "all four cases certify clean across all five checkers."
       else "CHECKER VIOLATIONS PRESENT — see anomaly column.");
      "";
      "Obligation (b) — an outage the detector cannot see (heartbeats";
      "fine, node dead) is exercised in test_fd: the watchdog's bounded";
      "resend plus the reliable channel's retransmission carry the";
      "advancement once the node restarts; nothing here waits on ground";
      "truth.";
    ]

(* A1: the two-wave stable-property check vs trusting a single matching
   poll. We count poll rounds (the cost) and unsound declarations caught by
   the oracle (the risk). *)
let run_a1 ~quick =
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes:4) with
        Workload.Hospital.arrival_rate = 800.;
        visit_fanout = 3;
        post_delay = 0.02;
      }
  in
  let row two_wave =
    let r =
      Scenario.run ~gen ~settle:3.0
        ~config:(fun c ->
          {
            c with
            Engine.latency = Latency.Exponential 0.02;
            two_wave_quiescence = two_wave;
            debug_checks = false (* record, don't crash *);
          })
        { Scenario.default with seed = 111;
          duration = (if quick then 1.0 else 4.0); period = 0.1 }
    in
    let polls = stat r.outcome "proto.polls" and advs = advancements r in
    [
      (if two_wave then "two-wave (paper)" else "single poll");
      Table.cell_i advs;
      Table.cell_i polls;
      Printf.sprintf "%.1f"
        (if advs = 0 then 0. else float_of_int polls /. float_of_int advs);
      Table.cell_i (stat r.outcome "proto.unsound_quiescence");
      partial_reads r.outcome;
    ]
  in
  report ~title:"A1: quiescence detection — two-wave vs single matching poll"
    ~columns:
      [
        "mode"; "advancements"; "poll rounds"; "polls/advancement";
        "unsound declarations"; "partial reads";
      ]
    (List.map row [ true; false ])
    [
      "";
      "Finding: with hierarchical completion notices (each subtransaction";
      "terminates only after its children, as in the paper's Table 1),";
      "even a single matching poll was never observed to declare early —";
      "the counters' increment-before-send discipline closes the classic";
      "in-flight-message window. The two-wave check of the cited";
      "stable-property literature costs only about one extra poll round";
      "per phase and is kept as the default.";
    ]

(* A2: finishing an advancement without GC acknowledgements breaks the
   three-version bound. *)
let run_a2 ~quick =
  let row acks =
    let r =
      Scenario.run ~settle:3.0
        ~config:(fun c ->
          {
            c with
            Engine.latency = Latency.Exponential 0.01;
            poll_interval = 0.005;
            await_gc_acks = acks;
            debug_checks = acks;
          })
        { Scenario.default with nodes = 5; rate = 1500.; seed = 121;
          duration = (if quick then 1.5 else 4.0); period = 0.02 }
    in
    let maxv = Engine.max_versions_ever (engine r) in
    [
      (if acks then "await GC acks (sound)" else "fire-and-forget GC");
      Table.cell_i (advancements r);
      Table.cell_i maxv;
      string_of_bool (maxv <= 3);
    ]
  in
  report ~title:"A2: GC acknowledgement — why the ≤3-version bound needs it"
    ~columns:[ "mode"; "advancements"; "max versions"; "bound holds" ]
    (List.map row [ true; false ])
    [
      "";
      "Without the acknowledgement, the next advancement can start while a";
      "garbage-collection notice is still in flight; a node then creates a";
      "version-(v+1) copy before dropping version v-2, and an item";
      "transiently holds four versions. Waiting for the acks restores the";
      "paper's §4.4 property 2(a).";
    ]

(* A3: the §2.3 dual write is what keeps the new version consistent when a
   straggler updates an item that already has a newer copy. *)
let run_a3 ~quick =
  let gen =
    Workload.Hospital.generator
      {
        (Workload.Hospital.default ~nodes:4) with
        Workload.Hospital.arrival_rate = 800.;
        visit_fanout = 3;
        post_delay = 0.03 (* plenty of stragglers *);
      }
  in
  let row dual =
    let r =
      Scenario.run ~gen ~settle:3.0
        ~config:(fun c ->
          {
            c with
            Engine.latency = Latency.Exponential 0.015;
            dual_writes = dual;
          })
        { Scenario.default with seed = 131;
          duration = (if quick then 1.5 else 4.0); period = 0.08 }
    in
    (* Publish everything, then replay-check the settled store. *)
    Scenario.publish r.sim (engine r);
    let replay =
      Checker.Replay.check r.outcome.Runner.history
        ~lookup:(Scenario.settled_lookup (engine r))
    in
    [
      (if dual then "dual writes (paper §2.3)" else "own-version only");
      Table.cell_i (committed_updates r.outcome);
      Table.cell_i (stat r.outcome "store.dual_writes_total");
      Table.cell_i replay.Checker.Replay.mismatch_count;
    ]
  in
  report ~title:"A3: dual writes — dropping them silently loses updates"
    ~columns:[ "mode"; "committed updates"; "dual writes"; "replay mismatches" ]
    (List.map row [ true; false ])
    [
      "";
      "With dual writes off, a straggler's update lands only in its own";
      "(old) version; when that version is garbage-collected the newer";
      "copy — which never saw the write — survives, and the final store";
      "no longer replays the committed history: charges vanish from the";
      "bill exactly as the paper's §2.3 analysis predicts.";
    ]

(* A4: retransmission. The advancement protocol never re-sends within a
   round on its own — a phase broadcast is sent once, a poll round awaits
   every reply — so without the channel-level retransmission a single lost
   protocol message blocks the coordinator forever. *)
let run_a4 ~quick =
  let sc =
    { outage_base with seed = 167; duration = (if quick then 1.5 else 3.0);
      fault_seed = 1671; atoms = [ Loss 0.08 ] }
  in
  let row retransmit =
    let r =
      Scenario.run ~gen:(synthetic sc) ~settle:6.0
        ~config:(fun c -> { c with Engine.retransmit })
        sc
    in
    let o = r.outcome in
    [
      (if retransmit then "retransmit (sound)" else "no retransmit");
      Table.cell_i (advancements r);
      Table.cell_i o.Runner.committed;
      Table.cell_i o.Runner.unfinished;
      Table.cell_i (stat o "net.retransmissions");
      Table.cell_i (stat o "fault.drops");
    ]
  in
  report ~title:"A4: retransmission — without it, message loss stalls advancement"
    ~columns:
      [
        "mode"; "advancements"; "committed"; "unfinished"; "retransmits";
        "drops";
      ]
    (List.map row [ true; false ])
    [
      "";
      "With retransmission off, the first lost phase broadcast, ack or";
      "poll reply leaves the coordinator waiting forever: advancement";
      "stalls (0 or near-0 completions) and transactions whose remote";
      "subtransactions were dropped never finish. With it on, the same";
      "loss pattern costs only duplicate bandwidth.";
    ]

(* ------------------------------------------------------------ registry *)

let all =
  [
    {
      id = "t1";
      title = "Table 1 — example execution replay";
      paper_ref = "Table 1, §2.3";
      run = run_t1;
    };
    {
      id = "f1";
      title = "Figure 1 — hospital scenario correctness";
      paper_ref = "Figure 1, §1";
      run = run_f1;
    };
    {
      id = "f2";
      title = "Figure 2 — version layout snapshots";
      paper_ref = "Figure 2, §2.3";
      run = run_f2;
    };
    {
      id = "e1";
      title = "Scalability across engines";
      paper_ref = "§1 four options, §8";
      run = run_e1;
    };
    {
      id = "e2";
      title = "Reads never delayed";
      paper_ref = "§8";
      run = run_e2;
    };
    {
      id = "e3";
      title = "Currency vs copy overhead";
      paper_ref = "§7";
      run = run_e3;
    };
    {
      id = "e4";
      title = "At most three versions";
      paper_ref = "§4.4 property 2a";
      run = run_e4;
    };
    {
      id = "e5";
      title = "Non-commuting updates (NC3V)";
      paper_ref = "§5";
      run = run_e5;
    };
    {
      id = "e6";
      title = "Dual-write overhead";
      paper_ref = "§2.3";
      run = run_e6;
    };
    {
      id = "e7";
      title = "Advancement asynchrony";
      paper_ref = "§8";
      run = run_e7;
    };
    {
      id = "e8";
      title = "Manual versioning comparison";
      paper_ref = "§1";
      run = run_e8;
    };
    {
      id = "e10";
      title = "Outage tolerance — frozen node";
      paper_ref = "§8 no-remote-delay, sharpest form";
      run = run_e10;
    };
    {
      id = "e11";
      title = "Message loss tolerance — retransmission";
      paper_ref = "§8 under an unreliable network";
      run = run_e11;
    };
    {
      id = "e12";
      title = "Crash-restart recovery vs Global-2PC";
      paper_ref = "§3.1 resilience, §4.1 late-node rule";
      run = run_e12;
    };
    {
      id = "e13";
      title = "Coordinator crash tolerance — WAL resume + watchdog";
      paper_ref = "§4.3 coordinator liveness; robustness extension";
      run = run_e13;
    };
    {
      id = "e14";
      title = "k-way replication — quorum advancement, failover, recovery";
      paper_ref = "§6 data replication; availability extension";
      run = run_e14;
    };
    {
      id = "e15";
      title = "Oracle-free liveness — heartbeat failure detection";
      paper_ref = "§4.3 liveness, §6 availability; robustness extension";
      run = run_e15;
    };
    {
      id = "e9";
      title = "Advancement message overhead";
      paper_ref = "§8 asynchrony, cost side";
      run = run_e9;
    };
    {
      id = "a1";
      title = "Ablation: two-wave quiescence detection";
      paper_ref = "§4.3 phase 2, [8,12,9]";
      run = run_a1;
    };
    {
      id = "a2";
      title = "Ablation: GC acknowledgements";
      paper_ref = "§4.4 property 2a";
      run = run_a2;
    };
    {
      id = "a3";
      title = "Ablation: dual writes";
      paper_ref = "§2.3";
      run = run_a3;
    };
    {
      id = "a4";
      title = "Ablation: retransmission under loss";
      paper_ref = "§4.3 liveness under an unreliable network";
      run = run_a4;
    };
  ]

let find id =
  let id = String.lowercase_ascii id in
  List.find_opt (fun e -> e.id = id) all


(* ------------------------------------------------------------ smoke *)

let smoke () =
  let buf = Buffer.create 256 in
  let ok = ref true in
  let check name cond =
    if not cond then ok := false;
    Buffer.add_string buf
      (Printf.sprintf "  [%s] %s\n" (if cond then "ok" else "FAIL") name)
  in
  (* Table 1 scripted replay: the protocol's ground truth. *)
  let replay = Table1.run () in
  check "t1: advancement completed" replay.Table1.advancement_completed;
  check "t1: update transactions committed"
    (replay.Table1.txn_i_committed && replay.Table1.txn_j_committed);
  check "t1: reads saw only version-0 data" replay.Table1.reads_saw_version0;
  (* Tiny E11: 2 nodes, 5% loss + duplication, reliable channel on. *)
  let sc = { Scenario.default with nodes = 2; rate = 300.; duration = 0.4 } in
  let gen = synthetic ~keys:10 ~zipf:0.5 sc in
  let r =
    Scenario.run ~gen ~settle:4.0
      ~config:(fun c -> { c with Engine.retransmit_timeout = 0.01 })
      { sc with seed = 7; period = 0.1; fault_seed = 7;
        atoms = [ Loss 0.05; Dup 0.02 ] }
  in
  let atom = Runner.atomicity r.outcome in
  check "e11-smoke: advancement completes under 5% loss" (advancements r >= 1);
  check "e11-smoke: history is anomaly-free"
    (atom.Checker.Atomicity.partial_reads = 0);
  check "e11-smoke: at most three versions"
    (Engine.max_versions_ever (engine r) <= 3);
  check "e11-smoke: no unfinished transactions"
    (r.outcome.Runner.unfinished = 0);
  (* Coord-smoke: one advancement with a mid-phase-2 coordinator crash
     (constant latency pins the phase schedule: phase 1 needs two 3 ms
     hops, so 0.215s lands in phase 2's poll loop; restart at 0.3s). *)
  let prepare, completed = advance_at 0.2 in
  let c =
    Scenario.run ~gen ~settle:4.0 ~prepare
      ~config:(fun c ->
        {
          c with
          Engine.latency = Latency.Constant 0.003;
          think_time = 0.0002;
          policy = Policy.Manual;
          retransmit_timeout = 0.01;
        })
      { sc with seed = 13; fault_seed = 13;
        atoms = [ Coord_crash (0.215, 0.3) ] }
  in
  let catom = Runner.atomicity c.outcome in
  check "coord-smoke: advancement completes across a coordinator crash"
    (completed () && advancements c >= 1);
  check "coord-smoke: coordinator recovered from its WAL"
    (stat c.outcome "proto.coord_recoveries" >= 1);
  check "coord-smoke: anomaly-free, bounded versions, nothing unfinished"
    (catom.Checker.Atomicity.partial_reads = 0
    && Engine.max_versions_ever (engine c) <= 3
    && c.outcome.Runner.unfinished = 0);
  (!ok, Buffer.contents buf)
