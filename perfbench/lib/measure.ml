(* One measured run of one workload at one seed, in the calling process.
   perfbench/run.py starts a fresh process per run, so heap figures never
   include another run's heap. *)

module Sim = Simul.Sim
module Engine = Threev.Engine
module Spec = Txn.Spec
module Result = Txn.Result
module Runner = Harness.Runner
module Counter_set = Stats.Counter_set
module Coord_log = Threev.Coord_log

(* Identical in every benchmark process: a 64 MiB minor heap and a relaxed
   major space overhead, the settings the repository's bench harness uses
   on its measured paths. *)
let gc_settings () =
  Gc.set
    {
      (Gc.get ()) with
      Gc.minor_heap_size = 8 * 1024 * 1024;
      space_overhead = 200;
    }

let gc_description () =
  let g = Gc.get () in
  Printf.sprintf "minor_heap_size=%dw space_overhead=%d allocation_policy=%d"
    g.Gc.minor_heap_size g.Gc.space_overhead g.Gc.allocation_policy

let mb_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1e6

(* Order-sensitive FNV-style digest of the finished history: ids, outcomes
   and every simulated timestamp. Equal digests mean equal schedules. *)
let digest history =
  let mix acc n = ((acc * 0x01000193) + n) land 0x3FFFFFFF in
  let mix_float acc f =
    let bits = Int64.bits_of_float f in
    mix
      (mix acc (Int64.to_int (Int64.logand bits 0xFFFFFFFFL)))
      (Int64.to_int (Int64.shift_right_logical bits 32))
  in
  List.fold_left
    (fun acc ((spec : Spec.t), (res : Result.t)) ->
      let acc = mix acc spec.Spec.id in
      let acc = mix acc (if Result.committed res then 1 else 0) in
      let acc = mix_float acc res.Result.submit_time in
      let acc = mix_float acc res.Result.root_commit_time in
      mix_float acc res.Result.complete_time)
    0x811C9DC5 history

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

let sorted_ms xs =
  let a = Array.of_list (List.map (fun x -> x *. 1000.) xs) in
  Array.sort Float.compare a;
  a

(* The node hosting each written key, from the spec trees: replay looks a
   key up in that node's settled store. *)
let key_homes history =
  let homes = Hashtbl.create 4096 in
  let rec walk (st : Spec.subtxn) =
    List.iter
      (fun op ->
        if Txn.Op.is_write op && not (Hashtbl.mem homes (Txn.Op.key op)) then
          Hashtbl.add homes (Txn.Op.key op) st.Spec.node)
      st.Spec.ops;
    List.iter walk st.Spec.children
  in
  List.iter (fun ((spec : Spec.t), _) -> walk spec.Spec.root) history;
  homes

let gate_input (inst : Workloads.instance) (outcome : Runner.outcome) =
  let engine = inst.Workloads.engine and w = inst.Workloads.workload in
  let history = outcome.Runner.history in
  let homes = key_homes history in
  let lookup key =
    match Hashtbl.find_opt homes key with
    | None -> None
    | Some node ->
        Option.map snd
          (Store.Mvstore.read_visible (Engine.store engine ~node) ~key
             ~version:max_int)
  in
  {
    Gate.history;
    lookup;
    shard_of_node =
      (if w.Workloads.shards > 1 then
         Some (fun node -> Engine.shard_of_node engine ~node)
       else None);
    vector = (fun txn -> Engine.assigned_vector engine ~txn);
    max_versions = Engine.max_versions_ever engine;
    unfinished = outcome.Runner.unfinished;
    fault_free = not w.Workloads.faults;
    advancements = Engine.advancements_completed engine;
  }

(* Per-advancement phase durations from the coordinator's log (shard 0's
   log on sharded runs): (phase 2, phase 4, whole advancement), seconds. *)
let phase_durations log =
  let entry = Hashtbl.create 64 and committed = Hashtbl.create 64 in
  List.iter
    (function
      | Coord_log.Phase { adv; phase; time; _ } ->
          let key = (adv, Coord_log.phase_number phase) in
          if not (Hashtbl.mem entry key) then Hashtbl.add entry key time
      | Coord_log.Committed { adv; time } -> Hashtbl.replace committed adv time
      | Coord_log.Started _ -> ())
    (Coord_log.records log);
  let advs =
    Hashtbl.fold (fun adv _ acc -> adv :: acc) committed []
    |> List.sort Int.compare
  in
  List.filter_map
    (fun adv ->
      match
        ( Hashtbl.find_opt entry (adv, 1),
          Hashtbl.find_opt entry (adv, 2),
          Hashtbl.find_opt entry (adv, 3),
          Hashtbl.find_opt entry (adv, 4) )
      with
      | Some t1, Some t2, Some t3, Some t4 ->
          let tc = Hashtbl.find committed adv in
          Some (t3 -. t2, tc -. t4, tc -. t1)
      | _ -> None)
    advs

(* Advancements the coordinator sustains per simulated second: completions
   after the first, over the time from the first completion to the last
   (shard 0's log on sharded runs). *)
let completion_rate log =
  match
    List.filter_map
      (function Coord_log.Committed { time; _ } -> Some time | _ -> None)
      (Coord_log.records log)
  with
  | first :: (_ :: _ as rest) ->
      let last = List.fold_left (fun _ t -> t) first rest in
      float_of_int (List.length rest) /. (last -. first)
  | _ -> 0.

type value = Int of int | Float of float | Str of string

type result = {
  fields : (string * value) list;
  failures : string list;
}

let span_names = [ "workload.make"; "engine.submit" ]

(* Wrap the generator and the engine so each call into them records a
   span under [parent] (read at call time). *)
let traced_gen spans parent (gen : Workload.Generator.t) =
  {
    gen with
    Workload.Generator.make =
      (fun rng ~id ->
        Spans.with_span spans ~name:"workload.make" ~parent:!parent ~req:id
          (fun _ -> gen.Workload.Generator.make rng ~id));
  }

let traced_engine spans parent engine =
  let module M = struct
    type t = Engine.t

    let name = Engine.name

    let submit t (spec : Spec.t) =
      Spans.with_span spans ~name:"engine.submit" ~parent:!parent
        ~req:spec.Spec.id (fun _ -> Engine.submit t spec)

    let stats = Engine.stats
  end in
  Txn.Engine_intf.Packed ((module M), engine)

let run (w : Workloads.t) ~seed ~traced ~spans_path =
  let spans = Spans.create () in
  let span name ~parent f =
    if traced then Spans.with_span spans ~name ~parent f else f (-1)
  in
  let drive_span = ref (-1) in
  let fields = ref [] in
  let add k v = fields := (k, v) :: !fields in
  let addf k x = add k (Float x) and addi k n = add k (Int n) in
  let failures =
    span "run" ~parent:(-1) (fun root ->
        let inst = span "setup" ~parent:root (fun _ -> Workloads.build w ~seed) in
        let gen, packed =
          if traced then
            ( traced_gen spans drive_span inst.Workloads.gen,
              traced_engine spans drive_span inst.Workloads.engine )
          else (inst.Workloads.gen, Engine.packed inst.Workloads.engine)
        in
        let gc0 = Gc.quick_stat () in
        let t0 = Clock.now_s () in
        let outcome =
          span "drive" ~parent:root (fun id ->
              drive_span := id;
              Runner.drive inst.Workloads.sim packed gen inst.Workloads.setup)
        in
        let drive_s = Clock.now_s () -. t0 in
        let gc1 = Gc.quick_stat () in
        let input = gate_input inst outcome in
        let t0 = Clock.now_s () in
        let reports =
          span "verify" ~parent:root (fun id ->
              Gate.verify
                ~around:
                  {
                    Gate.wrap =
                      (fun name f ->
                        span ("checker." ^ name) ~parent:id (fun _ -> f ()));
                  }
                input)
        in
        let verify_s = Clock.now_s () -. t0 in
        let gc2 = Gc.quick_stat () in
        let engine = inst.Workloads.engine in
        let history = outcome.Runner.history in
        let events = Sim.events_executed inst.Workloads.sim in
        let stat = Counter_set.get outcome.Runner.stats in
        let submitted = outcome.Runner.submitted in
        let committed = outcome.Runner.committed in
        let per_txn x = float_of_int x /. float_of_int (max 1 submitted) in
        (* Run identity and outcome counts. *)
        addi "digest" (digest history);
        addi "events" events;
        addi "submitted" submitted;
        addi "committed" committed;
        addi "aborted" outcome.Runner.aborted;
        addi "unfinished" outcome.Runner.unfinished;
        add "gc_settings" (Str (gc_description ()));
        (* End to end. *)
        addf "drive_s" drive_s;
        addf "verify_s" verify_s;
        addf "peak_heap_mb" (mb_of_words gc2.Gc.top_heap_words);
        let updates, reads =
          List.partition
            (fun ((spec : Spec.t), _) -> spec.Spec.kind <> Spec.Read_only)
            (List.filter (fun (_, r) -> Result.committed r) history)
        in
        let block = sorted_ms (List.map (fun (_, r) -> Result.blocking_latency r) updates)
        and usettle = sorted_ms (List.map (fun (_, r) -> Result.latency r) updates)
        and rsettle = sorted_ms (List.map (fun (_, r) -> Result.latency r) reads) in
        addf "update_block_p999_ms" (percentile block 0.999);
        addf "update_settle_p50_ms" (percentile usettle 0.50);
        addf "update_settle_p99_ms" (percentile usettle 0.99);
        addf "read_settle_p50_ms" (percentile rsettle 0.50);
        addf "read_settle_p99_ms" (percentile rsettle 0.99);
        addi "update_samples" (Array.length usettle);
        addi "read_samples" (Array.length rsettle);
        let stale = reports.Gate.staleness in
        addf "stale_missed_per_read" stale.Checker.Staleness.mean_missed;
        addf "stale_lag_ms" (stale.Checker.Staleness.mean_lag *. 1000.);
        let advs = Engine.advancements_completed engine in
        addf "adv_per_sim_s" (completion_rate (Engine.coord_log engine));
        (* Per layer: counts the program exposes. *)
        let n_updates = max 1 (List.length updates) in
        let per_update x = float_of_int x /. float_of_int n_updates in
        let msgs = max 1 (Engine.messages_sent engine) in
        let per_msg x = float_of_int x /. float_of_int msgs in
        addf "engine.subtxns_per_txn" (per_txn (stat "subtxn.executed"));
        addf "sim.events_per_txn" (per_txn events);
        addf "sim.ns_per_event" (drive_s *. 1e9 /. float_of_int (max 1 events));
        addf "net.msgs_per_txn" (per_txn (Engine.messages_sent engine));
        addf "net.remote_msgs_per_txn" (per_txn (Engine.remote_messages_sent engine));
        addf "net.retransmits_per_txn" (per_txn (stat "net.retransmissions"));
        addf "net.chan_acks_per_msg" (per_msg (stat "net.chan_acks"));
        addf "net.dedup_dropped_per_msg" (per_msg (stat "net.dedup_dropped"));
        addi "net.delivered_seen_final" (Engine.delivered_seen_size engine);
        addf "store.copies_per_update" (per_update (stat "store.copies_created"));
        addf "store.dual_writes_per_update" (per_update (stat "store.dual_writes_total"));
        addi "store.max_versions" (Engine.max_versions_ever engine);
        addi "coord.adv_completed" advs;
        addf "coord.polls_per_adv"
          (float_of_int (stat "proto.polls") /. float_of_int (max 1 advs));
        let phases = phase_durations (Engine.coord_log engine) in
        let col f = sorted_ms (List.map f phases) in
        addf "coord.phase2_sim_ms_p50" (percentile (col (fun (p2, _, _) -> p2)) 0.5);
        addf "coord.phase4_sim_ms_p50" (percentile (col (fun (_, p4, _) -> p4)) 0.5);
        addf "coord.adv_sim_ms_max" (percentile (col (fun (_, _, a) -> a)) 1.0);
        addi "coord.phase_stalled" (stat "proto.phase_stalled");
        addi "coord.polls" (stat "proto.polls");
        addi "poll_width" (w.Workloads.nodes / w.Workloads.shards);
        addf "repl.mirrors_per_update" (per_update (stat "repl.mirrors"));
        addi "repl.failovers" (stat "repl.failovers");
        addi "repl.quorum_deferred" (stat "repl.quorum_deferred");
        addi "fd.heartbeats_sent" (stat "fd.heartbeats_sent");
        addi "fd.suspicions" (stat "fd.suspicions");
        addi "fd.confirmed" (stat "fd.confirmed");
        addf "shard.vectored_read_frac"
          (float_of_int (stat "shard.vectored_reads")
          /. float_of_int (max 1 (List.length reads)));
        addi "shard.rvector_deferred" (stat "shard.rvector_deferred");
        List.iter (fun (name, s) -> addf ("checker." ^ name ^ "_s") s) reports.Gate.seconds;
        let srz = reports.Gate.serializability in
        let hist_txns = max 1 (List.length history) in
        addf "checker.mvsg_edges_per_txn"
          (float_of_int srz.Checker.Serializability.edges /. float_of_int hist_txns);
        addf "checker.anti_edges_per_txn"
          (float_of_int srz.Checker.Serializability.anti_edges
          /. float_of_int hist_txns);
        addf "gc.minor_words_per_event"
          ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. float_of_int (max 1 events));
        addf "gc.promoted_words_per_event"
          ((gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
          /. float_of_int (max 1 events));
        addi "gc.major_collections" (gc2.Gc.major_collections - gc0.Gc.major_collections);
        addf "gc.sim_peak_heap_mb" (mb_of_words gc1.Gc.top_heap_words);
        addf "gc.verify_minor_words_per_txn"
          ((gc2.Gc.minor_words -. gc1.Gc.minor_words) /. float_of_int hist_txns);
        (* Shapes the layer replays copy from this run. *)
        addf "inflight_mean" (Stats.Series.mean_y outcome.Runner.in_flight);
        Gate.failures input reports)
  in
  if traced then begin
    let total = Spans.totals spans in
    List.iter
      (fun name ->
        let c = total name in
        let n = float_of_int (max 1 c.Spans.count) in
        addi (name ^ "_spans") c.Spans.count;
        addf (name ^ "_ns") (float_of_int c.Spans.ns /. n);
        addf (name ^ "_minor_words") (c.Spans.minor /. n);
        addf (name ^ "_promoted_words") (c.Spans.promoted /. n);
        addf (name ^ "_total_s") (float_of_int c.Spans.ns /. 1e9))
      span_names;
    let drive_self = Spans.self_ns spans !drive_span in
    addf "drive.self_s" (float_of_int drive_self /. 1e9);
    Option.iter (Spans.write spans) spans_path
  end;
  { fields = List.rev !fields; failures }

(* Layer replays at the run's shape; see Replays. *)
let replays (w : Workloads.t) ~seed ~inflight ~subtxns ~dual_frac =
  let depth = max 16 (int_of_float (inflight *. subtxns)) in
  let write_ns, read_ns =
    Replays.store_ns ~seed ~keys:50 ~ops:400_000
      ~straggle:(if dual_frac > 0. then max 1 (int_of_float (1. /. dual_frac)) else 0)
  in
  [
    ("simul.replay_event_ns", Float (Replays.simul_event_ns ~seed ~depth ~events:600_000));
    ( "net.replay_send_recv_ns",
      Float (Replays.net_send_recv_ns ~seed ~nodes:w.Workloads.nodes ~depth ~msgs:200_000) );
    ( "net.replay_reliable_send_recv_ns",
      Float
        (Replays.reliable_send_recv_ns ~seed ~nodes:w.Workloads.nodes ~depth
           ~msgs:100_000) );
    ("store.replay_write_upward_ns", Float write_ns);
    ("store.replay_read_visible_ns", Float read_ns);
    ( "counters.replay_snapshot_ns",
      Float
        (Replays.counters_snapshot_ns ~seed
           ~width:(w.Workloads.nodes / w.Workloads.shards)
           ~snapshots:200_000) );
    ("replay.depth", Int depth);
  ]

let json_of_fields fields =
  let esc s =
    let b = Buffer.create (String.length s) in
    String.iter
      (function
        | '"' -> Buffer.add_string b "\\\""
        | '\\' -> Buffer.add_string b "\\\\"
        | c -> Buffer.add_char b c)
      s;
    Buffer.contents b
  in
  let value = function
    | Int n -> string_of_int n
    | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
    | Float _ -> "null"
    | Str s -> "\"" ^ esc s ^ "\""
  in
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %s" (esc k) (value v)) fields)
  ^ "}"
