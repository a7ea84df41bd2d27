(* The benchmark's correctness gate must refuse a corrupted run. A small
   clean run passes; each corruption below must fail it, with the reason
   the gate gives naming what was corrupted. *)

open Perfbench_core
module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value

let tiny =
  {
    Workloads.steady with
    Workloads.name = "tiny";
    nodes = 8;
    rate_per_node = 50.;
    period = 0.1;
    duration = 1.0;
    settle = 1.0;
  }

let failed = ref false

(* [reasons = []] expects a pass; otherwise every reason must appear in
   some failure message. *)
let expect name input ~reasons =
  let fails = Gate.failures input (Gate.verify input) in
  let contains reason s =
    let n = String.length reason in
    let rec at i = i + n <= String.length s && (String.sub s i n = reason || at (i + 1)) in
    at 0
  in
  let ok =
    if reasons = [] then fails = []
    else List.for_all (fun r -> List.exists (contains r) fails) reasons
  in
  Printf.printf "%-40s %s  [%s]\n" name
    (if ok then "ok" else "WRONG")
    (String.concat "; " fails);
  if not ok then failed := true

(* A committed read that observed one writer on two different keys. *)
let find_double_observation history =
  List.find_map
    (fun ((spec : Spec.t), (res : Result.t)) ->
      if spec.Spec.kind <> Spec.Read_only || not (Result.committed res) then None
      else
        List.find_map
          (fun (k1, (v1 : Value.t)) ->
            List.find_map
              (fun (k2, (v2 : Value.t)) ->
                if k1 = k2 then None
                else
                  Value.Writers.inter v1.Value.writers v2.Value.writers
                  |> Value.Writers.min_elt_opt
                  |> Option.map (fun w -> (spec.Spec.id, k2, w)))
              res.Result.reads)
          res.Result.reads)
    history

let map_result history ~txn f =
  List.map
    (fun ((spec : Spec.t), res) ->
      if spec.Spec.id = txn then (spec, f res) else (spec, res))
    history

let drop_writer ~key ~writer (res : Result.t) =
  {
    res with
    Result.reads =
      List.map
        (fun (k, (v : Value.t)) ->
          if k = key then
            (k, { v with Value.writers = Value.Writers.remove writer v.Value.writers })
          else (k, v))
        res.Result.reads;
  }

let add_writer ~writer (res : Result.t) =
  {
    res with
    Result.reads =
      (match res.Result.reads with
      | (k, (v : Value.t)) :: rest ->
          (k, { v with Value.writers = Value.Writers.add writer v.Value.writers })
          :: rest
      | [] -> []);
  }

(* Double the delta of the first committed increment in the history. *)
let inflate_increment history =
  let rec bump (st : Spec.subtxn) done_ =
    let ops, done_ =
      List.fold_left
        (fun (acc, d) op ->
          match op with
          | Txn.Op.Incr (k, delta) when not d -> (Txn.Op.Incr (k, 2. *. delta) :: acc, true)
          | op -> (op :: acc, d))
        ([], done_) st.Spec.ops
    in
    let children, done_ =
      List.fold_left
        (fun (acc, d) c ->
          let c, d = bump c d in
          (c :: acc, d))
        ([], done_) st.Spec.children
    in
    ({ st with Spec.ops = List.rev ops; children = List.rev children }, done_)
  in
  let changed = ref false in
  List.map
    (fun ((spec : Spec.t), res) ->
      if !changed || spec.Spec.kind <> Spec.Commuting || not (Result.committed res)
      then (spec, res)
      else begin
        let root, d = bump spec.Spec.root false in
        changed := d;
        ({ spec with Spec.root }, res)
      end)
    history

let () =
  let inst = Workloads.build tiny ~seed:7 in
  let outcome =
    Harness.Runner.drive inst.Workloads.sim
      (Threev.Engine.packed inst.Workloads.engine)
      inst.Workloads.gen inst.Workloads.setup
  in
  let clean = Measure.gate_input inst outcome in
  let history = clean.Gate.history in
  expect "clean run passes" clean ~reasons:[];
  (match find_double_observation history with
  | None ->
      print_endline "no read observed one writer on two keys";
      failed := true
  | Some (txn, key, writer) ->
      expect "read misses half an update"
        { clean with Gate.history = map_result history ~txn (drop_writer ~key ~writer) }
        ~reasons:[ "MVSG has a cycle"; "atomic-visibility anomaly"; "version-read anomaly" ];
      expect "read sees a transaction that never ran"
        { clean with Gate.history = map_result history ~txn (add_writer ~writer:(-5)) }
        ~reasons:[ "writer tags no update accounts for" ]);
  expect "settled stores disagree with history"
    { clean with Gate.history = inflate_increment history }
    ~reasons:[ "settled stores disagree" ];
  expect "an item holds four versions" { clean with Gate.max_versions = 4 }
    ~reasons:[ "versions (bound 3)" ];
  expect "unfinished transaction, fault-free run" { clean with Gate.unfinished = 1 }
    ~reasons:[ "unfinished" ];
  expect "no advancement completed" { clean with Gate.advancements = 0 }
    ~reasons:[ "no advancement" ];
  if !failed then exit 1
