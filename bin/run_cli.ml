(* The `threev_sim run` command line: flags that fill a
   {!Harness.Scenario.t}. Validation and the fault-spec grammars live in
   Scenario, so the reproducer lines it renders parse back here to an
   equal scenario; the test suite drives [parse] to prove it. *)

module Scenario = Harness.Scenario
open Cmdliner

let opt c ?docv name default doc =
  Arg.(value & opt c default & info [ name ] ?docv ~doc)

(* Fault-spec flags: the grammars are Scenario's, shared with the argv
   pre-scan in main (one-line usage + exit 2 on malformed specs). *)
let specs name ~docv doc =
  let parse s =
    Result.map_error (fun m -> `Msg m) (Scenario.parse_atom ("--" ^ name) s)
  in
  let print ppf a = Format.pp_print_string ppf (snd (Scenario.atom_argv a)) in
  let spec = Arg.conv (parse, print) in
  Arg.(value & opt_all spec [] & info [ name ] ~docv ~doc)

let d = Scenario.default

let term =
  let open Term.Syntax in
  let+ engine =
    opt (Arg.enum Scenario.engines) ~docv:"ENGINE" "engine" d.engine
      "3v, 2pc, nocoord or manual."
  and+ workload =
    opt (Arg.enum Scenario.workloads) ~docv:"W" "workload" d.workload
      "hospital, calls, pos or synthetic."
  and+ nodes = opt Arg.int "nodes" d.nodes "Number of database nodes."
  and+ replicas =
    opt Arg.int "replicas" d.replicas
      "Replication factor k: nodes are partitioned into groups of k \
       consecutive replicas; commuting updates mirror to every group \
       member, reads fail over inside the group, and advancement \
       tolerates k-1 crashed replicas per group. 3v engine only; \
       requires --nc-ratio 0."
  and+ shards =
    opt Arg.int "shards" d.shards
      "Shard count S: nodes are partitioned into S contiguous blocks, \
       each with its own advancement coordinator, write-ahead log and \
       version frontier; update transactions stay within one shard, \
       cross-shard reads get a consistent per-shard read vector. S \
       must divide --nodes evenly and each block must be a multiple \
       of --replicas. 3v engine only; > 1 requires --workload \
       synthetic (the shard-aware generator) and --nc-ratio 0."
  and+ rate =
    opt Arg.float "rate" d.rate
      "Transaction arrival rate per virtual second."
  and+ duration =
    opt Arg.float "duration" d.duration
      "Submission window in virtual seconds."
  and+ seed = opt Arg.int "seed" d.seed "RNG seed."
  and+ period =
    opt Arg.float "advancement-period" d.period
      "3V advancement / manual versioning period (virtual seconds)."
  and+ nc_ratio =
    opt Arg.float "nc-ratio" d.nc_ratio
      "Fraction of non-commuting updates (pos/synthetic workloads)."
  and+ read_ratio =
    opt Arg.float "read-ratio" d.read_ratio
      "Read-only fraction."
  and+ drop_prob =
    opt Arg.float "drop-prob" 0.
      "Drop each remote message with this probability."
  and+ dup_prob =
    opt Arg.float "dup-prob" 0.
      "Duplicate each remote message with this probability."
  and+ partitions =
    specs ~docv:"SPEC" "partition"
      "Either SRC:DST:FROM:UNTIL — drop every message on one directed \
       link during [FROM, UNTIL) virtual seconds — or \
       SET\\@FROM:UNTIL[:oneway] — cut the comma-separated node set \
       SET off from the rest of the cluster for the window, both \
       directions by default, only the set's outbound links with \
       :oneway (an asymmetric partition: the set still hears the \
       cluster but is never heard). Repeatable."
  and+ hb_period =
    opt Arg.float "hb-period" d.hb_period
      "Heartbeat period in virtual seconds: every node beats to the \
       coordinator's failure detector and all liveness decisions \
       (read failover, quorum participation, watchdog excusal) come \
       from heartbeat suspicion instead of ground truth. 0 (default) \
       disables the detector. 3v engine only."
  and+ hb_timeout =
    opt Arg.float "hb-timeout" d.hb_timeout
      "Base suspicion horizon (virtual seconds): a node whose \
       heartbeat is this overdue — adaptively stretched by observed \
       inter-arrival times — becomes suspected. Must exceed \
       --hb-period; used only when --hb-period > 0."
  and+ hb_losses =
    specs ~docv:"NODE\\@FROM:UNTIL[:PROB]" "hb-loss"
      "Drop NODE's outgoing heartbeats during [FROM, UNTIL) with \
       probability PROB (default 1) — provokes false suspicion of a \
       live node without touching protocol traffic. Repeatable; \
       requires --hb-period > 0."
  and+ crashes =
    specs ~docv:"NODE\\@TIME:RESTART" "crash"
      "Fail-stop NODE at TIME and restart it at RESTART: volatile \
       state is lost, the durable store and counters survive. \
       Repeatable; 3v engine only."
  and+ coord_crashes =
    specs ~docv:"TIME:RESTART" "coord-crash"
      "Fail-stop the advancement coordinator at TIME and restart it \
       at RESTART: volatile phase progress is lost, the write-ahead \
       log survives and the in-flight advancement is re-driven from \
       its last logged phase. Repeatable; 3v engine only."
  and+ data_crashes =
    specs ~docv:"GROUP\\@TIME:RESTART" "data-crash"
      "Fail-stop all but one replica of replica group GROUP at TIME \
       and restart them at RESTART — the E14 fault shape: quorum \
       advancement and read failover carry the group on its last \
       live replica. Repeatable; requires --replicas > 1."
  and+ phase_deadline =
    opt Arg.float "phase-deadline" d.phase_deadline
      "Stall watchdog deadline (virtual seconds) per advancement \
       phase: past it the coordinator records a stall and re-sends \
       the phase message with bounded backoff. Default infinity \
       (watchdog off). 3v engine only."
  and+ fault_seed =
    opt Arg.int "fault-seed" d.fault_seed
      "Seed of the dedicated fault RNG — fault decisions never \
       perturb the workload or latency RNG streams."
  in
  let atoms =
    (if drop_prob > 0. then [ Scenario.Loss drop_prob ] else [])
    @ (if dup_prob > 0. then [ Scenario.Dup dup_prob ] else [])
    @ hb_losses @ partitions @ crashes @ data_crashes @ coord_crashes
  in
  let sc =
    {
      Scenario.engine; workload; nodes; replicas; shards; rate; duration; seed;
      period; nc_ratio; read_ratio; fault_seed; phase_deadline; hb_period;
      hb_timeout; atoms = Scenario.canonical atoms;
    }
  in
  Result.map (fun () -> sc) (Scenario.validate sc)

let parse args =
  let err = Buffer.create 64 in
  match
    Cmd.eval_value ~err:(Format.formatter_of_buffer err)
      ~argv:(Array.of_list ("run" :: args))
      (Cmd.v (Cmd.info "run") term)
  with
  | Ok (`Ok r) -> r
  | Ok (`Help | `Version) -> Error "help requested"
  | Error _ -> Error (Buffer.contents err)
