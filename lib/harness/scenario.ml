module Sim = Simul.Sim
module Latency = Netsim.Latency
module Engine = Threev.Engine
module Policy = Threev.Policy
module Mvstore = Store.Mvstore
module Srz = Checker.Serializability

type engine = E_3v | E_2pc | E_nocoord | E_manual
type workload = W_hospital | W_calls | W_pos | W_synthetic

type atom =
  | Loss of float
  | Dup of float
  | Partition of int * int * float * float
  | Partition_set of int list * float * float * bool
  | Crash of int * float * float
  | Coord_crash of float * float
  | Data_crash of int * float * float
  | Hb_loss of int * float * float * float

type t = {
  engine : engine;
  workload : workload;
  nodes : int;
  replicas : int;
  shards : int;
  rate : float;
  duration : float;
  seed : int;
  period : float;
  nc_ratio : float;
  read_ratio : float;
  fault_seed : int;
  phase_deadline : float;
  hb_period : float;
  hb_timeout : float;
  atoms : atom list;
}

let default =
  {
    engine = E_3v;
    workload = W_hospital;
    nodes = 4;
    replicas = 1;
    shards = 1;
    rate = 400.;
    duration = 2.0;
    seed = 1;
    period = 0.2;
    nc_ratio = 0.;
    read_ratio = 0.25;
    fault_seed = 42;
    phase_deadline = infinity;
    hb_period = 0.;
    hb_timeout = 0.1;
    atoms = [];
  }

let engines =
  [ ("3v", E_3v); ("2pc", E_2pc); ("nocoord", E_nocoord); ("manual", E_manual) ]

let workloads =
  [
    ("hospital", W_hospital); ("calls", W_calls); ("pos", W_pos);
    ("synthetic", W_synthetic);
  ]

let name_of table v = fst (List.find (fun (_, x) -> x = v) table)
let engine_name = name_of engines
let workload_name = name_of workloads

let strict = function E_3v | E_2pc -> true | E_nocoord | E_manual -> false

let rank = function
  | Loss _ -> 0
  | Dup _ -> 1
  | Hb_loss _ -> 2
  | Partition _ | Partition_set _ -> 3
  | Crash _ -> 4
  | Data_crash _ -> 5
  | Coord_crash _ -> 6

let canonical atoms =
  List.stable_sort (fun a b -> Int.compare (rank a) (rank b)) atoms

(* ------------------------------------------------------------- grammar *)

(* Shortest spelling that parses back to the same float: [%g] for every
   value the fuzzer draws (three decimals), full precision otherwise. *)
let fl x =
  let s = Printf.sprintf "%g" x in
  if float_of_string s = x then s else Printf.sprintf "%.17g" x

let atom_argv = function
  | Loss p -> ("--drop-prob", fl p)
  | Dup p -> ("--dup-prob", fl p)
  | Partition (s, d, f, u) ->
      ("--partition", Printf.sprintf "%d:%d:%s:%s" s d (fl f) (fl u))
  | Partition_set (set, f, u, oneway) ->
      ( "--partition",
        Printf.sprintf "%s@%s:%s%s"
          (String.concat "," (List.map string_of_int set))
          (fl f) (fl u)
          (if oneway then ":oneway" else "") )
  | Crash (n, a, r) -> ("--crash", Printf.sprintf "%d@%s:%s" n (fl a) (fl r))
  | Coord_crash (a, r) ->
      ("--coord-crash", Printf.sprintf "%s:%s" (fl a) (fl r))
  | Data_crash (g, a, r) ->
      ("--data-crash", Printf.sprintf "%d@%s:%s" g (fl a) (fl r))
  | Hb_loss (n, f, u, p) ->
      ( "--hb-loss",
        if p = 1. then Printf.sprintf "%d@%s:%s" n (fl f) (fl u)
        else Printf.sprintf "%d@%s:%s:%s" n (fl f) (fl u) (fl p) )

let atom_flag a =
  let flag, v = atom_argv a in
  flag ^ " " ^ v

let usages =
  [
    ("--partition", "SRC:DST:FROM:UNTIL | SET@FROM:UNTIL[:oneway]");
    ("--crash", "NODE@TIME:RESTART");
    ("--coord-crash", "TIME:RESTART");
    ("--data-crash", "GROUP@TIME:RESTART");
    ("--hb-loss", "NODE@FROM:UNTIL[:PROB]");
  ]

let parse_atom flag s =
  let scan fmt k = Scanf.sscanf_opt s fmt k in
  let set_partition () =
    match String.split_on_char '@' s with
    | [ set; window ] -> (
        try
          let set =
            List.map
              (fun x -> int_of_string (String.trim x))
              (String.split_on_char ',' set)
          in
          let cut f u oneway =
            let f = float_of_string f and u = float_of_string u in
            Some (Partition_set (set, f, u, oneway))
          in
          match String.split_on_char ':' window with
          | [ f; u ] -> cut f u false
          | [ f; u; "oneway" ] -> cut f u true
          | _ -> None
        with Failure _ -> None)
    | _ -> None
  in
  let parsed =
    match flag with
    | "--partition" -> (
        match scan "%d:%d:%f:%f%!" (fun a b f u -> Partition (a, b, f, u)) with
        | None -> set_partition ()
        | link -> link)
    | "--crash" -> scan "%d@%f:%f%!" (fun n a r -> Crash (n, a, r))
    | "--coord-crash" -> scan "%f:%f%!" (fun a r -> Coord_crash (a, r))
    | "--data-crash" -> scan "%d@%f:%f%!" (fun g a r -> Data_crash (g, a, r))
    | "--hb-loss" -> (
        match scan "%d@%f:%f:%f%!" (fun n f u p -> Hb_loss (n, f, u, p)) with
        | None -> scan "%d@%f:%f%!" (fun n f u -> Hb_loss (n, f, u, 1.))
        | loss -> loss)
    | _ -> invalid_arg ("Scenario.parse_atom: " ^ flag)
  in
  match parsed with
  | Some a -> Ok a
  | None ->
      Error
        (Printf.sprintf "bad %s spec %S; usage: %s %s"
           (String.sub flag 2 (String.length flag - 2))
           s flag (List.assoc flag usages))

let prevalidate argv =
  let n = Array.length argv in
  let error i (flag, _) =
    let a = argv.(i) and pfx = flag ^ "=" in
    let value =
      if a = flag && i + 1 < n then Some argv.(i + 1)
      else if String.starts_with ~prefix:pfx a then
        let k = String.length pfx in
        Some (String.sub a k (String.length a - k))
      else None
    in
    match Option.map (parse_atom flag) value with
    | Some (Error m) -> Some m
    | _ -> None
  in
  List.init (max 0 (n - 1)) succ
  |> List.find_map (fun i -> List.find_map (error i) usages)

(* ------------------------------------------------------- construction *)

let plan sc =
  if sc.atoms = [] then None
  else
    let atoms = canonical sc.atoms in
    let rules =
      List.concat_map
        (function
          | Loss drop -> Fault.Plan.uniform_loss ~drop ()
          | Dup dup -> Fault.Plan.uniform_loss ~dup ~drop:0. ()
          | Hb_loss (src, from_, until_, prob) ->
              Fault.Plan.heartbeat_loss ~src ~prob ~from_ ~until_ ()
          | Partition (src, dst, from_, until_) ->
              [ Fault.Plan.partition ~src ~dst ~from_ ~until_ ]
          | Partition_set (set, from_, until_, oneway) ->
              (* The engine's endpoint space is the data nodes plus one
                 coordinator per shard at ids [nodes..nodes+S-1]. *)
              Fault.Plan.partition_set ~universe:(sc.nodes + sc.shards) ~set
                ~oneway ~from_ ~until_ ()
          | Crash _ | Data_crash _ | Coord_crash _ -> [])
        atoms
    in
    let placement =
      Repl.Placement.create ~nodes:sc.nodes ~replicas:sc.replicas
    in
    let crashes =
      List.concat_map
        (function
          | Crash (node, at, restart) -> [ Fault.Plan.crash ~node ~at ~restart ]
          | Data_crash (group, at, restart) ->
              if group < 0 || group >= Repl.Placement.group_count placement
              then
                invalid_arg
                  (Printf.sprintf "--data-crash: group %d out of range" group);
              Fault.Plan.crash_replicas
                ~members:(Repl.Placement.members placement group)
                ~keep:1 ~at ~restart
          | _ -> [])
        atoms
    in
    let coord_crashes =
      List.filter_map
        (function
          | Coord_crash (at, restart) ->
              Some (Fault.Plan.coord_crash ~at ~restart)
          | _ -> None)
        atoms
    in
    Some (Fault.Plan.make ~seed:sc.fault_seed ~rules ~crashes ~coord_crashes ())

let validate sc =
  let has p = List.exists p sc.atoms in
  let sharded = sc.shards > 1 and per_shard = sc.nodes / max 1 sc.shards in
  let broken =
    [
      (sc.shards < 1, "--shards must be at least 1");
      ( sc.shards > sc.nodes || sc.nodes mod max 1 sc.shards <> 0,
        "--shards must divide --nodes evenly" );
      (sharded && sc.engine <> E_3v, "--shards supports only --engine 3v");
      ( sharded && sc.workload <> W_synthetic,
        "--shards > 1 requires --workload synthetic (the shard-aware \
         generator; other workloads emit cross-shard update trees the engine \
         rejects)" );
      (sharded && sc.nc_ratio > 0., "--shards > 1 requires --nc-ratio 0");
      ( sharded && per_shard mod max 1 sc.replicas <> 0,
        "--shards: each shard block (nodes/shards) must be a multiple of \
         --replicas" );
      ( sc.atoms <> [] && not (strict sc.engine),
        "fault-injection flags support only --engine 3v or 2pc" );
      ( has (function Coord_crash _ -> true | _ -> false) && sc.engine <> E_3v,
        "--coord-crash supports only --engine 3v" );
      ( sc.replicas <> 1 && sc.engine <> E_3v,
        "--replicas supports only --engine 3v" );
      ( sc.replicas < 1 || sc.replicas > sc.nodes,
        "--replicas must be in 1..nodes" );
      ( sc.replicas > 1 && sc.nc_ratio > 0.,
        "--replicas > 1 requires --nc-ratio 0 (commuting core only)" );
      ( has (function Data_crash _ -> true | _ -> false) && sc.replicas <= 1,
        "--data-crash requires --replicas > 1" );
      ( sc.phase_deadline <> infinity && sc.phase_deadline <= 0.,
        "--phase-deadline must be positive" );
      (sc.hb_period < 0., "--hb-period must be non-negative");
      ( sc.hb_period > 0. && sc.engine <> E_3v,
        "--hb-period supports only --engine 3v" );
      ( sc.hb_period > 0. && sc.hb_timeout <= sc.hb_period,
        "--hb-timeout must exceed --hb-period" );
      ( has (function Hb_loss _ -> true | _ -> false) && sc.hb_period <= 0.,
        "--hb-loss requires --hb-period > 0" );
    ]
  in
  match List.find_opt fst broken with
  | Some (_, msg) -> Error msg
  | None -> ( try ignore (plan sc); Ok () with Invalid_argument m -> Error m)

let generator sc =
  let nodes = sc.nodes and arrival_rate = sc.rate in
  let read_ratio = sc.read_ratio and nc_ratio = sc.nc_ratio in
  match sc.workload with
  | W_hospital ->
      Workload.Hospital.(
        generator { (default ~nodes) with arrival_rate; read_ratio })
  | W_calls ->
      Workload.Call_recording.(
        generator { (default ~nodes) with arrival_rate; read_ratio })
  | W_pos ->
      Workload.Point_of_sale.(
        generator { (default ~nodes) with arrival_rate; read_ratio; nc_ratio })
  | W_synthetic ->
      Workload.Synthetic.(
        generator
          {
            (default ~nodes) with
            arrival_rate;
            shards = sc.shards;
            read_ratio;
            nc_ratio;
          })

let to_argv sc =
  let opt name v d show = if v = d then [] else [ name; show v ] in
  let d = default in
  [
    "--engine"; engine_name sc.engine;
    "--workload"; workload_name sc.workload;
    "--nodes"; string_of_int sc.nodes;
    "--rate"; fl sc.rate;
    "--duration"; fl sc.duration;
    "--seed"; string_of_int sc.seed;
    "--read-ratio"; fl sc.read_ratio;
  ]
  @ opt "--replicas" sc.replicas d.replicas string_of_int
  @ opt "--shards" sc.shards d.shards string_of_int
  @ opt "--advancement-period" sc.period d.period fl
  @ opt "--nc-ratio" sc.nc_ratio d.nc_ratio fl
  @ opt "--hb-period" sc.hb_period d.hb_period fl
  @ opt "--hb-timeout" sc.hb_timeout d.hb_timeout fl
  @ opt "--phase-deadline" sc.phase_deadline d.phase_deadline fl
  @ opt "--fault-seed" sc.fault_seed d.fault_seed string_of_int
  @ List.concat_map (fun a -> [ fst (atom_argv a); snd (atom_argv a) ]) sc.atoms

(* ---------------------------------------------------------------- run *)

type run = {
  scenario : t;
  sim : Sim.t;
  outcome : Runner.outcome;
  engine : Engine.t option;
}

let engine_config sc =
  {
    (Engine.default_config ~nodes:sc.nodes) with
    Engine.latency = Latency.Exponential 0.003;
    policy = Policy.Periodic sc.period;
    nc_mode = sc.nc_ratio > 0.;
    think_time = 0.0005;
    (* Any fault plan can drop or duplicate messages, and the detector's
       suspicions re-route traffic, so the reliable channel comes on with
       either. *)
    reliable_channel = sc.atoms <> [] || sc.hb_period > 0.;
    retransmit_timeout = 0.02;
    phase_deadline = sc.phase_deadline;
    replicas = sc.replicas;
    shards = sc.shards;
    hb_period = sc.hb_period;
    hb_timeout = sc.hb_timeout;
  }

let run ?(config = Fun.id) ?gen ?(settle = 5.0) ?prepare sc =
  let sim = Sim.create ~seed:sc.seed () in
  let plan = plan sc in
  let faults = Option.map (Fault.Injector.create sim) plan in
  let gen = match gen with Some g -> g | None -> generator sc in
  let nodes = sc.nodes in
  let latency = Latency.Exponential 0.003 and think_time = 0.0005 in
  let packed, engine =
    match sc.engine with
    | E_3v ->
        let e = Engine.create sim ?faults (config (engine_config sc)) () in
        (Engine.packed e, Some e)
    | E_2pc ->
        ( Baselines.Global_2pc.(
            packed
              (create ?faults sim
                 {
                   (default_config ~nodes) with
                   latency;
                   think_time;
                   deadlock_timeout = 0.05;
                 })),
          None )
    | E_nocoord ->
        ( Baselines.No_coord.(
            packed
              (create sim
                 { (default_config ~nodes) with latency; think_time })),
          None )
    | E_manual ->
        ( Baselines.Manual_versioning.(
            packed
              (create sim
                 {
                   (default_config ~nodes) with
                   latency;
                   think_time;
                   period = sc.period;
                 })),
          None )
  in
  (match (prepare, engine) with
  | None, _ -> ()
  | Some f, Some e -> f sim e
  | Some _, None -> invalid_arg "Scenario.run: ~prepare needs the 3V engine");
  let setup =
    {
      Runner.default_setup with
      Runner.seed = sc.seed;
      duration = sc.duration;
      settle;
    }
  in
  { scenario = sc; sim; outcome = Runner.drive sim packed gen setup; engine }

(* ------------------------------------------------------------ verdict *)

let publish sim engine =
  let a1 = Engine.advance engine and a2 = Engine.advance engine in
  ignore (Sim.run sim ~until:(Sim.now sim +. 20.) ());
  ignore (Simul.Ivar.is_full a1 && Simul.Ivar.is_full a2)

let settled_lookup engine key =
  let rec scan node =
    if node < 0 then None
    else
      match
        Mvstore.read_visible (Engine.store engine ~node) ~key ~version:max_int
      with
      | Some (_, v) -> Some v
      | None -> scan (node - 1)
  in
  scan (Repl.Placement.nodes (Engine.placement engine) - 1)

type check = { check_name : string; ok : bool; detail : string }

type verdict = {
  serializability : Srz.report;
  atomicity : Checker.Atomicity.report;
  anomalies : int;
  checks : check list;
}

let check check_name ok pp r =
  { check_name; ok; detail = Format.asprintf "%a" pp r }

let certify ?engine history =
  (* Per-shard version numbers are incomparable across shards: the
     certifiers only order same-shard versions, and exact-version reads
     are fenced per key by the assigned read vector. *)
  let sharded =
    match engine with Some e when Engine.shard_count e > 1 -> Some e | _ -> None
  in
  let shard_of_node =
    Option.map (fun e node -> Engine.shard_of_node e ~node) sharded
  in
  let vector =
    Option.map (fun e txn -> Engine.assigned_vector e ~txn) sharded
  in
  let srz = Srz.certify ?shard_of_node history in
  let atom = Checker.Atomicity.check history in
  let engine_checks =
    match engine with
    | None -> []
    | Some e ->
        let vr = Checker.Version_reads.check ?vector ?shard_of_node history in
        let rp = Checker.Replay.check history ~lookup:(settled_lookup e) in
        [
          ( vr.Checker.Version_reads.violation_count,
            check "version-reads" (Checker.Version_reads.clean vr)
              Checker.Version_reads.pp vr );
          ( rp.Checker.Replay.mismatch_count,
            check "replay" (Checker.Replay.clean rp) Checker.Replay.pp rp );
        ]
  in
  {
    serializability = srz;
    atomicity = atom;
    anomalies =
      (if Srz.serializable srz then 0 else 1)
      + srz.Srz.unknown_count + atom.Checker.Atomicity.partial_reads
      + atom.Checker.Atomicity.dirty_reads
      + List.fold_left (fun acc (n, _) -> acc + n) 0 engine_checks;
    checks =
      check "serializability"
        (Srz.serializable srz && srz.Srz.unknown_count = 0)
        Srz.pp srz
      :: check "atomicity" (Checker.Atomicity.clean atom) Checker.Atomicity.pp
           atom
      :: List.map snd engine_checks;
  }

let verify r =
  Option.iter (publish r.sim) r.engine;
  let v = certify ?engine:r.engine r.outcome.Runner.history in
  let o = r.outcome in
  let settled =
    {
      check_name = "settled";
      ok = o.Runner.unfinished = 0;
      detail =
        Printf.sprintf "unfinished=%d of %d submitted" o.Runner.unfinished
          o.Runner.submitted;
    }
  in
  if strict r.scenario.engine then { v with checks = v.checks @ [ settled ] }
  else v
