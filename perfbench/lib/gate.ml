(* The correctness gate every benchmark run must pass before any of its
   numbers are reported. *)

module Spec = Txn.Spec
module Result = Txn.Result

type input = {
  history : (Spec.t * Result.t) list;
  lookup : string -> Txn.Value.t option;
      (** settled value of a key, for the end-state replay check *)
  shard_of_node : (int -> int) option;  (** [Some] on sharded runs *)
  vector : int -> int array option;  (** read vector assigned to a txn *)
  max_versions : int;
  unfinished : int;
  fault_free : bool;
  advancements : int;
}

type reports = {
  serializability : Checker.Serializability.report;
  atomicity : Checker.Atomicity.report;
  version_reads : Checker.Version_reads.report;
  replay : Checker.Replay.report;
  staleness : Checker.Staleness.report;
  seconds : (string * float) list;
      (** wall seconds per checker, in the order they ran *)
}

(* Wraps each checker call; the traced run passes one that records a span. *)
type wrap = { wrap : 'a. string -> (unit -> 'a) -> 'a }

let no_wrap = { wrap = (fun _ f -> f ()) }

let verify ?(around = no_wrap) (i : input) =
  let seconds = ref [] in
  let timed name f =
    around.wrap name (fun () ->
        let t0 = Clock.now_s () in
        let r = f () in
        seconds := (name, Clock.now_s () -. t0) :: !seconds;
        r)
  in
  let serializability =
    timed "serializability" (fun () ->
        Checker.Serializability.certify ?shard_of_node:i.shard_of_node
          i.history)
  in
  let atomicity =
    timed "atomicity" (fun () -> Checker.Atomicity.check i.history)
  in
  let version_reads =
    timed "version_reads" (fun () ->
        Checker.Version_reads.check ~vector:i.vector
          ?shard_of_node:i.shard_of_node i.history)
  in
  let replay =
    timed "replay" (fun () -> Checker.Replay.check i.history ~lookup:i.lookup)
  in
  let staleness =
    timed "staleness" (fun () -> Checker.Staleness.measure i.history)
  in
  {
    serializability;
    atomicity;
    version_reads;
    replay;
    staleness;
    seconds = List.rev !seconds;
  }

let max_versions_bound = 3

(* Every reason the run is refused; [] means it passed. *)
let failures (i : input) (r : reports) =
  let srz = r.serializability in
  List.filter_map
    (fun (bad, msg) -> if bad then Some msg else None)
    [
      (not (Checker.Serializability.serializable srz), "MVSG has a cycle");
      ( srz.Checker.Serializability.unknown_count > 0,
        "reads observed writer tags no update accounts for" );
      (not (Checker.Atomicity.clean r.atomicity), "atomic-visibility anomaly");
      (not (Checker.Version_reads.clean r.version_reads), "version-read anomaly");
      (not (Checker.Replay.clean r.replay), "settled stores disagree with history");
      ( i.max_versions > max_versions_bound,
        Printf.sprintf "an item held %d versions (bound %d)" i.max_versions
          max_versions_bound );
      ( i.fault_free && i.unfinished > 0,
        Printf.sprintf "%d transactions unfinished on a fault-free run"
          i.unfinished );
      (i.advancements = 0, "no advancement completed");
    ]
