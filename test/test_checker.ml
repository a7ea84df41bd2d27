(* Tests for the offline correctness checkers, on hand-built histories. *)

module Spec = Txn.Spec
module Op = Txn.Op
module Value = Txn.Value
module Result = Txn.Result
module Atomicity = Checker.Atomicity
module Staleness = Checker.Staleness
module Replay = Checker.Replay

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* History-building helpers. *)

let update_spec ~id keys =
  match keys with
  | [] -> invalid_arg "update_spec"
  | first :: rest ->
      Spec.make ~id
        (Spec.subtxn
           ~children:(List.mapi (fun i k -> Spec.subtxn (i + 1) [ Op.Incr (k, 1.) ]) rest)
           0
           [ Op.Incr (first, 1.) ])

let read_spec ~id keys =
  match keys with
  | [] -> invalid_arg "read_spec"
  | first :: rest ->
      Spec.make ~id
        (Spec.subtxn
           ~children:(List.mapi (fun i k -> Spec.subtxn (i + 1) [ Op.Read k ]) rest)
           0
           [ Op.Read first ])

let committed_result ~id ?(version = 1) ?(reads = []) ?(submit = 0.)
    ?(complete = 1.) () =
  {
    Result.txn_id = id;
    served_by = 0;
    outcome = Result.Committed;
    version;
    reads;
    submit_time = submit;
    root_commit_time = submit;
    complete_time = complete;
  }

(* A value as a read would observe it: tagged with the writers seen. *)
let value_with writers =
  List.fold_left (fun v txn -> Value.incr ~txn ~delta:1. v) Value.empty writers

(* -------------------------------------------------------- atomicity *)

let atomicity_clean_history () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", value_with [ 1 ]); ("b", value_with [ 1 ]) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "reads" 1 report.Atomicity.reads_checked;
  checki "pairs" 1 report.Atomicity.pairs_checked;
  checkb "clean" true (Atomicity.clean report)

let atomicity_all_or_nothing () =
  (* Seeing none of an update is fine too (stale but atomic). *)
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", Value.empty); ("b", Value.empty) ]
          () );
    ]
  in
  checkb "none observed is atomic" true (Atomicity.clean (Atomicity.check history))

let atomicity_detects_partial () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", value_with [ 1 ]); ("b", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "one partial read" 1 report.Atomicity.partial_reads;
  checkb "example recorded" true (report.Atomicity.examples = [ (2, 1) ])

let atomicity_single_key_overlap_ignored () =
  (* With only one overlapping key there is nothing to be partial about. *)
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "z" ] in
  let history =
    [
      (u, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", value_with [ 1 ]); ("z", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "no pairs" 0 report.Atomicity.pairs_checked;
  checkb "clean" true (Atomicity.clean report)

let atomicity_dirty_read () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      ( u,
        {
          (committed_result ~id:1 ()) with
          Result.outcome = Result.Aborted "deadlock";
        } );
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", value_with [ 1 ]); ("b", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check history in
  checki "dirty read counted" 1 report.Atomicity.dirty_reads;
  checkb "not clean" false (Atomicity.clean report)

let atomicity_compensated_counts_as_effectful () =
  (* A compensated transaction's tags are visible; observing them on all
     overlapping keys is atomic, on a strict subset is a violation. *)
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let compensated =
    {
      (committed_result ~id:1 ()) with
      Result.outcome = Result.Aborted "compensated";
    }
  in
  let partial_history =
    [
      (u, compensated);
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", value_with [ 1 ]); ("b", Value.empty) ]
          () );
    ]
  in
  let report = Atomicity.check partial_history in
  checki "partial observation of compensated txn flagged" 1
    report.Atomicity.partial_reads;
  checki "not a dirty read" 0 report.Atomicity.dirty_reads

let atomicity_aborted_reads_skipped () =
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      ( r,
        {
          (committed_result ~id:2 ~reads:[ ("a", value_with [ 1 ]) ] ()) with
          Result.outcome = Result.Aborted "timeout";
        } );
    ]
  in
  checki "aborted reads not checked" 0
    (Atomicity.check history).Atomicity.reads_checked

(* -------------------------------------------------------- staleness *)

let staleness_counts_missed () =
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let u2 = update_spec ~id:2 [ "a"; "b" ] in
  let r = read_spec ~id:3 [ "a"; "b" ] in
  let history =
    [
      (u1, committed_result ~id:1 ~complete:1.0 ());
      (u2, committed_result ~id:2 ~complete:2.0 ());
      ( r,
        (* Submitted at t=5, saw u1 but missed u2. *)
        committed_result ~id:3 ~submit:5.
          ~reads:[ ("a", value_with [ 1 ]); ("b", value_with [ 1 ]) ]
          () );
    ]
  in
  let report = Staleness.measure history in
  checki "reads" 1 report.Staleness.reads;
  checki "missed" 1 report.Staleness.missed_total;
  Alcotest.(check (float 1e-9)) "lag is read.submit - u2.complete" 3.
    report.Staleness.max_lag

let staleness_future_updates_not_missed () =
  let u = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u, committed_result ~id:1 ~complete:10.0 ());
      ( r,
        committed_result ~id:2 ~submit:5.
          ~reads:[ ("a", Value.empty); ("b", Value.empty) ]
          () );
    ]
  in
  let report = Staleness.measure history in
  checki "nothing applicable missed" 0 report.Staleness.missed_total

let staleness_fresh_reads () =
  let u = update_spec ~id:1 [ "a" ] in
  let r = read_spec ~id:2 [ "a" ] in
  let history =
    [
      (u, committed_result ~id:1 ~complete:1. ());
      (r, committed_result ~id:2 ~submit:2. ~reads:[ ("a", value_with [ 1 ]) ] ());
    ]
  in
  let report = Staleness.measure history in
  checki "no misses" 0 report.Staleness.reads_with_misses;
  Alcotest.(check (float 1e-9)) "zero lag" 0. report.Staleness.mean_lag

(* ----------------------------------------------------------- replay *)

let replay_detects_mismatch () =
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let u2 = update_spec ~id:2 [ "a" ] in
  let history =
    [
      (u1, committed_result ~id:1 ());
      (u2, committed_result ~id:2 ());
    ]
  in
  (* Correct store: a = 2, b = 1. *)
  let good_lookup key =
    let amount = if key = "a" then 2. else 1. in
    Some { Value.empty with Value.amount }
  in
  checkb "clean on correct store" true
    (Replay.clean (Replay.check history ~lookup:good_lookup));
  (* Lossy store: a lost one increment. *)
  let bad_lookup key =
    Some { Value.empty with Value.amount = (if key = "a" then 1. else 1.) }
  in
  let report = Replay.check history ~lookup:bad_lookup in
  checki "one mismatch" 1 report.Replay.mismatch_count;
  (match report.Replay.mismatches with
  | [ m ] ->
      Alcotest.(check string) "key" "a" m.Replay.key;
      Alcotest.(check (float 1e-9)) "expected" 2. m.Replay.expected
  | _ -> Alcotest.fail "expected one mismatch")

let replay_skips_overwritten_keys () =
  let u1 = update_spec ~id:1 [ "a" ] in
  let nc =
    Spec.make ~id:2 (Spec.subtxn 0 [ Op.Overwrite ("a", 99.); Op.Incr ("c", 1.) ])
  in
  let history =
    [ (u1, committed_result ~id:1 ()); (nc, committed_result ~id:2 ()) ]
  in
  let report =
    Replay.check history ~lookup:(fun key ->
        if key = "c" then Some { Value.empty with Value.amount = 1. } else None)
  in
  checkb "a skipped, c checked, clean" true
    (report.Replay.keys_skipped = 1 && Replay.clean report)

let replay_uncommitted_excluded () =
  let u = update_spec ~id:1 [ "a" ] in
  let history =
    [ (u, { (committed_result ~id:1 ()) with Result.outcome = Result.Aborted "x" }) ]
  in
  let report = Replay.check history ~lookup:(fun _ -> None) in
  checkb "aborted txn contributes nothing" true (Replay.clean report)

let replay_missing_key_is_zero () =
  let u = update_spec ~id:1 [ "a" ] in
  let history = [ (u, committed_result ~id:1 ()) ] in
  let report = Replay.check history ~lookup:(fun _ -> None) in
  checki "missing key mismatches expected 1" 1 report.Replay.mismatch_count

(* ----------------------------------------------------- version reads *)

let vr_committed_at version ~id = committed_result ~id ~version ()

let version_reads_exact () =
  (* u1 at version 1, u2 at version 2; a read at version 1 must see u1 on
     every key and never u2. *)
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let u2 = update_spec ~id:2 [ "a"; "b" ] in
  let r = read_spec ~id:3 [ "a"; "b" ] in
  let good =
    [
      (u1, vr_committed_at 1 ~id:1);
      (u2, vr_committed_at 2 ~id:2);
      ( r,
        {
          (vr_committed_at 1 ~id:3) with
          Result.reads = [ ("a", value_with [ 1 ]); ("b", value_with [ 1 ]) ];
        } );
    ]
  in
  checkb "exact set accepted" true
    (Checker.Version_reads.clean (Checker.Version_reads.check good))

let version_reads_missing () =
  let u1 = update_spec ~id:1 [ "a"; "b" ] in
  let r = read_spec ~id:2 [ "a"; "b" ] in
  let history =
    [
      (u1, vr_committed_at 1 ~id:1);
      ( r,
        {
          (vr_committed_at 1 ~id:2) with
          (* Missed u1 on b even though u1 has version <= the read's. *)
          Result.reads = [ ("a", value_with [ 1 ]); ("b", Value.empty) ];
        } );
    ]
  in
  let report = Checker.Version_reads.check history in
  checki "one violation" 1 report.Checker.Version_reads.violation_count;
  match report.Checker.Version_reads.violations with
  | [ v ] ->
      checkb "missing recorded" true
        (v.Checker.Version_reads.missing = [ 1 ]
        && v.Checker.Version_reads.key = "b")
  | _ -> Alcotest.fail "expected one violation"

let version_reads_leak () =
  let u2 = update_spec ~id:2 [ "a" ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (u2, vr_committed_at 2 ~id:2);
      ( r,
        {
          (vr_committed_at 1 ~id:3) with
          (* Saw a version-2 writer from a version-1 read: leak. *)
          Result.reads = [ ("a", value_with [ 2 ]) ];
        } );
    ]
  in
  let report = Checker.Version_reads.check history in
  checki "leak flagged" 1 report.Checker.Version_reads.violation_count;
  (match report.Checker.Version_reads.violations with
  | [ v ] ->
      checkb "future leak id" true
        (v.Checker.Version_reads.leaked_future = [ 2 ]);
      checkb "no unknown tags" true (v.Checker.Version_reads.unknown = [])
  | _ -> Alcotest.fail "expected one violation")

let version_reads_unknown_writer () =
  let u2 = update_spec ~id:2 [ "a" ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (* Txn 2 aborted without compensation, yet its tag was observed: a
         dirty read. No effect-ful update accounts for the tag, so it must
         surface as [unknown], not [leaked_future]. *)
      ( u2,
        { (vr_committed_at 2 ~id:2) with Result.outcome = Result.Aborted "x" }
      );
      ( r,
        {
          (vr_committed_at 1 ~id:3) with
          Result.reads = [ ("a", value_with [ 2 ]) ];
        } );
    ]
  in
  let report = Checker.Version_reads.check history in
  checki "dirty read flagged" 1 report.Checker.Version_reads.violation_count;
  match report.Checker.Version_reads.violations with
  | [ v ] ->
      checkb "unknown id" true (v.Checker.Version_reads.unknown = [ 2 ]);
      checkb "not a future leak" true
        (v.Checker.Version_reads.leaked_future = [])
  | _ -> Alcotest.fail "expected one violation"

let version_reads_aborted_excluded () =
  let u = update_spec ~id:1 [ "a" ] in
  let r = read_spec ~id:2 [ "a" ] in
  let history =
    [
      ( u,
        { (vr_committed_at 1 ~id:1) with Result.outcome = Result.Aborted "x" } );
      (r, { (vr_committed_at 1 ~id:2) with Result.reads = [ ("a", Value.empty) ] });
    ]
  in
  checkb "aborted update not expected" true
    (Checker.Version_reads.clean (Checker.Version_reads.check history))

(* -------------------------------------------------- serializability *)

module Srz = Checker.Serializability

(* A single-node spec with arbitrary ops (reads + writes mixed). *)
let rw_spec ~id ops = Spec.make ~id (Spec.subtxn 0 ops)

(* Every consecutive pair of witness edges must chain dst -> src, wrapping
   around — a genuine cycle, not just a bag of edges. *)
let well_formed_cycle = function
  | [] -> false
  | edges ->
      let arr = Array.of_list edges in
      let n = Array.length arr in
      let ok = ref true in
      Array.iteri
        (fun i e ->
          if e.Srz.dst <> arr.((i + 1) mod n).Srz.src then ok := false)
        arr;
      !ok

let flagged_with_witness history =
  let r = Srz.certify history in
  (not (Srz.serializable r))
  && (match r.Srz.cycle with Some c -> well_formed_cycle c | None -> false)

(* The exact witness, edge by edge: (src, dst, key, kind). The fuzzer's
   positive controls print witnesses, so their order is part of the
   output contract. *)
let check_witness history expected =
  let edge (src, dst, key, kind) = { Srz.src; dst; key; kind } in
  checkb "exact witness" true
    ((Srz.certify history).Srz.cycle = Some (List.map edge expected))

let srz_lost_update () =
  (* Both read the balance before either deposit landed, then both
     overwrite: whichever order they serialize in, the second must have
     seen the first. *)
  let t1 = rw_spec ~id:1 [ Op.Read "a"; Op.Overwrite ("a", 10.) ] in
  let t2 = rw_spec ~id:2 [ Op.Read "a"; Op.Overwrite ("a", 20.) ] in
  let history =
    [
      (t1, committed_result ~id:1 ~reads:[ ("a", Value.empty) ] ());
      (t2, committed_result ~id:2 ~reads:[ ("a", Value.empty) ] ());
    ]
  in
  checkb "lost update flagged" true (flagged_with_witness history);
  let r = Srz.certify history in
  checkb "two-edge witness" true
    (match r.Srz.cycle with Some c -> List.length c = 2 | None -> false);
  check_witness history
    [ (1, 2, "a", Srz.Anti_dependency); (2, 1, "a", Srz.Anti_dependency) ]

let srz_write_skew () =
  (* t1 reads both and writes b; t2 reads both and writes a; neither sees
     the other. Atomic visibility holds — only the certifier catches it. *)
  let t1 =
    rw_spec ~id:1 [ Op.Read "a"; Op.Read "b"; Op.Overwrite ("b", 1.) ]
  in
  let t2 =
    rw_spec ~id:2 [ Op.Read "a"; Op.Read "b"; Op.Overwrite ("a", 1.) ]
  in
  let history =
    [
      ( t1,
        committed_result ~id:1
          ~reads:[ ("a", Value.empty); ("b", Value.empty) ]
          () );
      ( t2,
        committed_result ~id:2
          ~reads:[ ("a", Value.empty); ("b", Value.empty) ]
          () );
    ]
  in
  checkb "atomicity does not catch write skew" true
    (Atomicity.clean (Atomicity.check history));
  checkb "certifier flags write skew" true (flagged_with_witness history);
  check_witness history
    [ (1, 2, "a", Srz.Anti_dependency); (2, 1, "b", Srz.Anti_dependency) ]

let srz_read_only_anomaly () =
  (* Two commuting writers of the same key; reader 3 sees only writer 1,
     reader 4 sees only writer 2 — each reader alone is consistent, but no
     serial order places both. *)
  let t1 = rw_spec ~id:1 [ Op.Incr ("a", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Incr ("a", 1.) ] in
  let r1 = read_spec ~id:3 [ "a" ] in
  let r2 = read_spec ~id:4 [ "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ());
      (t2, committed_result ~id:2 ());
      (r1, committed_result ~id:3 ~reads:[ ("a", value_with [ 1 ]) ] ());
      (r2, committed_result ~id:4 ~reads:[ ("a", value_with [ 2 ]) ] ());
    ]
  in
  checkb "read-only anomaly flagged" true (flagged_with_witness history);
  check_witness history
    [
      (1, 3, "a", Srz.Reads_from);
      (3, 2, "a", Srz.Anti_dependency);
      (2, 4, "a", Srz.Reads_from);
      (4, 1, "a", Srz.Anti_dependency);
    ]

let srz_non_repeatable_read () =
  (* One transaction observes the same key with and without writer 1's
     tag: the writer lands both before and after the reader. *)
  let t1 = rw_spec ~id:1 [ Op.Incr ("a", 1.) ] in
  let r = read_spec ~id:2 [ "a"; "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ());
      ( r,
        committed_result ~id:2
          ~reads:[ ("a", value_with [ 1 ]); ("a", Value.empty) ]
          () );
    ]
  in
  checkb "non-repeatable read flagged" true (flagged_with_witness history);
  check_witness history
    [ (1, 2, "a", Srz.Reads_from); (2, 1, "a", Srz.Anti_dependency) ]

let srz_version_order_cycle () =
  (* Writer 2 overwrote at version 2, after writer 1's version-1 overwrite.
     A reader that saw 2's tag but not 1's contradicts tag monotonicity
     under that version order. *)
  let t1 = rw_spec ~id:1 [ Op.Overwrite ("a", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Overwrite ("a", 2.) ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ~version:1 ());
      (t2, committed_result ~id:2 ~version:2 ());
      (r, committed_result ~id:3 ~version:2 ~reads:[ ("a", value_with [ 2 ]) ] ());
    ]
  in
  let report = Srz.certify history in
  checki "ww edge present" 1 report.Srz.ww_edges;
  checkb "version-order cycle flagged" true (flagged_with_witness history);
  check_witness history
    [
      (1, 2, "a", Srz.Version_order);
      (2, 3, "a", Srz.Reads_from);
      (3, 1, "a", Srz.Anti_dependency);
    ]

let srz_commuting_writers_not_ordered () =
  (* Same shape but the writers commute (Incr): seeing the version-2
     increment without the version-1 one is serializable as t2, r, t1. A
     naive version-order edge between commuting writers would wrongly flag
     this. *)
  let t1 = rw_spec ~id:1 [ Op.Incr ("a", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Incr ("a", 1.) ] in
  let r = read_spec ~id:3 [ "a" ] in
  let history =
    [
      (t1, committed_result ~id:1 ~version:1 ());
      (t2, committed_result ~id:2 ~version:2 ());
      (r, committed_result ~id:3 ~version:2 ~reads:[ ("a", value_with [ 2 ]) ] ());
    ]
  in
  let report = Srz.certify history in
  checki "no ww edges between commuting writers" 0 report.Srz.ww_edges;
  checkb "serializable" true (Srz.serializable report)

let srz_clean_history () =
  let t1 = rw_spec ~id:1 [ Op.Incr ("a", 1.); Op.Incr ("b", 1.) ] in
  let t2 = rw_spec ~id:2 [ Op.Incr ("a", 1.) ] in
  let r = read_spec ~id:3 [ "a"; "b" ] in
  let history =
    [
      (t1, committed_result ~id:1 ());
      (t2, committed_result ~id:2 ());
      ( r,
        committed_result ~id:3
          ~reads:[ ("a", value_with [ 1; 2 ]); ("b", value_with [ 1 ]) ]
          () );
    ]
  in
  let report = Srz.certify history in
  checkb "clean history certifies" true (Srz.serializable report);
  checki "nodes" 3 report.Srz.txns;
  checki "no unknown tags" 0 report.Srz.unknown_count

let srz_unknown_tag_reported () =
  (* A tag with no effect-ful writer behind it gets no edge but is
     surfaced. *)
  let r = read_spec ~id:2 [ "a" ] in
  let history =
    [ (r, committed_result ~id:2 ~reads:[ ("a", value_with [ 99 ]) ] ()) ]
  in
  let report = Srz.certify history in
  checkb "still serializable" true (Srz.serializable report);
  checki "unknown counted" 1 report.Srz.unknown_count;
  checkb "unknown listed" true (report.Srz.unknown_tags = [ (2, "a", 99) ])

let duplicate_ids_rejected () =
  (* Writer tags are transaction ids: a history that repeats an id is
     ambiguous, and every indexed checker refuses it. *)
  let u = update_spec ~id:1 [ "a" ] in
  let history = [ (u, committed_result ~id:1 ()); (u, committed_result ~id:1 ()) ] in
  let rejects name f =
    Alcotest.check_raises name
      (Invalid_argument "History_index.build: duplicate transaction id 1")
      (fun () -> ignore (f history))
  in
  rejects "certify" (fun h -> Srz.certify h);
  rejects "atomicity" Atomicity.check;
  rejects "staleness" Staleness.measure;
  rejects "version reads" (fun h -> Checker.Version_reads.check h)

(* qcheck: randomized instances of the three anomaly families are always
   flagged, with a well-formed cycle witness. *)
let srz_anomalies_flagged =
  let gen =
    QCheck.Gen.(
      pair (int_range 0 2) (pair (int_range 1 50) (int_range 0 4)))
  in
  QCheck.Test.make ~name:"serializability: anomaly families always flagged"
    ~count:150 (QCheck.make gen)
    (fun (shape, (id_base, key_idx)) ->
      let k = Printf.sprintf "k%d" key_idx in
      let k2 = Printf.sprintf "k%d'" key_idx in
      let i1 = id_base and i2 = id_base + 1 and i3 = id_base + 2
      and i4 = id_base + 3 in
      let history =
        match shape with
        | 0 ->
            (* lost update on k *)
            [
              ( rw_spec ~id:i1 [ Op.Read k; Op.Overwrite (k, 1.) ],
                committed_result ~id:i1 ~reads:[ (k, Value.empty) ] () );
              ( rw_spec ~id:i2 [ Op.Read k; Op.Overwrite (k, 2.) ],
                committed_result ~id:i2 ~reads:[ (k, Value.empty) ] () );
            ]
        | 1 ->
            (* write skew across k, k2 *)
            [
              ( rw_spec ~id:i1 [ Op.Read k; Op.Read k2; Op.Overwrite (k2, 1.) ],
                committed_result ~id:i1
                  ~reads:[ (k, Value.empty); (k2, Value.empty) ]
                  () );
              ( rw_spec ~id:i2 [ Op.Read k; Op.Read k2; Op.Overwrite (k, 1.) ],
                committed_result ~id:i2
                  ~reads:[ (k, Value.empty); (k2, Value.empty) ]
                  () );
            ]
        | _ ->
            (* read-only anomaly: opposing one-sided observations *)
            [
              (rw_spec ~id:i1 [ Op.Incr (k, 1.) ], committed_result ~id:i1 ());
              (rw_spec ~id:i2 [ Op.Incr (k, 1.) ], committed_result ~id:i2 ());
              ( read_spec ~id:i3 [ k ],
                committed_result ~id:i3 ~reads:[ (k, value_with [ i1 ]) ] () );
              ( read_spec ~id:i4 [ k ],
                committed_result ~id:i4 ~reads:[ (k, value_with [ i2 ]) ] () );
            ]
      in
      flagged_with_witness history)

(* ------------------------------------------------ differential oracle *)

(* Set-based reference definitions of the four history checkers: the
   straightforward formulations the dense-index implementations replaced,
   kept here only as an oracle. Every report field must match exactly —
   cycle witnesses (keys and kinds), [unknown_tags], [examples] and
   violation order included. *)
module Oracle = struct
  module Int_set = Set.Make (Int)
  module Str_map = Map.Make (String)
  module Vr = Checker.Version_reads

  let has_effect (res : Result.t) =
    match res.Result.outcome with
    | Result.Committed -> true
    | Result.Aborted "compensated" -> true
    | Result.Aborted _ -> false

  (* ---- serializability *)

  let write_kinds (spec : Spec.t) =
    let tbl = Hashtbl.create 8 in
    let rec walk (st : Spec.subtxn) =
      List.iter
        (fun op ->
          if Op.is_write op then begin
            let key = Op.key op in
            let prev =
              match Hashtbl.find_opt tbl key with Some b -> b | None -> false
            in
            Hashtbl.replace tbl key (prev || not (Op.commuting_write op))
          end)
        st.Spec.ops;
      List.iter walk st.Spec.children
    in
    walk spec.Spec.root;
    tbl

  type graph = {
    adj : (int, Int_set.t ref) Hashtbl.t;
    edge_tbl : (int * int * Srz.edge_kind, Srz.edge) Hashtbl.t;
    mutable rf : int;
    mutable anti : int;
    mutable ww : int;
  }

  let add_edge g ~src ~dst ~key ~kind =
    if src <> dst && not (Hashtbl.mem g.edge_tbl (src, dst, kind)) then begin
      Hashtbl.replace g.edge_tbl (src, dst, kind) { Srz.src; dst; key; kind };
      (match kind with
      | Srz.Reads_from -> g.rf <- g.rf + 1
      | Srz.Anti_dependency -> g.anti <- g.anti + 1
      | Srz.Version_order -> g.ww <- g.ww + 1);
      let set =
        match Hashtbl.find_opt g.adj src with
        | Some s -> s
        | None ->
            let s = ref Int_set.empty in
            Hashtbl.replace g.adj src s;
            s
      in
      set := Int_set.add dst !set
    end

  let succs g v =
    match Hashtbl.find_opt g.adj v with
    | Some s -> Int_set.elements !s
    | None -> []

  let edge_between g src dst =
    match Hashtbl.find_opt g.edge_tbl (src, dst, Srz.Reads_from) with
    | Some e -> Some e
    | None -> (
        match Hashtbl.find_opt g.edge_tbl (src, dst, Srz.Anti_dependency) with
        | Some e -> Some e
        | None -> Hashtbl.find_opt g.edge_tbl (src, dst, Srz.Version_order))

  let sccs g nodes =
    let index = Hashtbl.create 64 in
    let lowlink = Hashtbl.create 64 in
    let on_stack = Hashtbl.create 64 in
    let stack = ref [] in
    let counter = ref 0 in
    let out = ref [] in
    let push v =
      Hashtbl.replace index v !counter;
      Hashtbl.replace lowlink v !counter;
      incr counter;
      stack := v :: !stack;
      Hashtbl.replace on_stack v ()
    in
    let visit root =
      if not (Hashtbl.mem index root) then begin
        let call = Stack.create () in
        push root;
        Stack.push (root, ref (succs g root)) call;
        while not (Stack.is_empty call) do
          let v, rest = Stack.top call in
          match !rest with
          | w :: tl ->
              rest := tl;
              if not (Hashtbl.mem index w) then begin
                push w;
                Stack.push (w, ref (succs g w)) call
              end
              else if Hashtbl.mem on_stack w then
                Hashtbl.replace lowlink v
                  (min (Hashtbl.find lowlink v) (Hashtbl.find index w))
          | [] ->
              ignore (Stack.pop call);
              if Hashtbl.find lowlink v = Hashtbl.find index v then begin
                let rec pop acc =
                  match !stack with
                  | w :: tl ->
                      stack := tl;
                      Hashtbl.remove on_stack w;
                      if w = v then w :: acc else pop (w :: acc)
                  | [] -> acc
                in
                out := pop [] :: !out
              end;
              (match Stack.top_opt call with
              | Some (parent, _) ->
                  Hashtbl.replace lowlink parent
                    (min (Hashtbl.find lowlink parent) (Hashtbl.find lowlink v))
              | None -> ())
        done
      end
    in
    List.iter visit nodes;
    !out

  let shortest_cycle_through g members start =
    let parent = Hashtbl.create 16 in
    let q = Queue.create () in
    Queue.add start q;
    Hashtbl.replace parent start start;
    let found = ref None in
    (try
       while not (Queue.is_empty q) do
         let u = Queue.pop q in
         List.iter
           (fun w ->
             if w = start then begin
               let rec back v acc =
                 if v = start then start :: acc
                 else back (Hashtbl.find parent v) (v :: acc)
               in
               found := Some (back u []);
               raise Exit
             end
             else if Int_set.mem w members && not (Hashtbl.mem parent w) then begin
               Hashtbl.replace parent w u;
               Queue.add w q
             end)
           (succs g u)
       done
     with Exit -> ());
    !found

  let find_cycle g nodes =
    let multi = List.filter (fun scc -> List.length scc >= 2) (sccs g nodes) in
    match
      List.sort (fun a b -> compare (List.length a) (List.length b)) multi
    with
    | [] -> None
    | scc :: _ -> (
        let members = Int_set.of_list scc in
        let best = ref None in
        (try
           List.iter
             (fun start ->
               match shortest_cycle_through g members start with
               | Some c -> (
                   match !best with
                   | Some b when List.length b <= List.length c -> ()
                   | _ ->
                       best := Some c;
                       if List.length c = 2 then raise Exit)
               | None -> ())
             scc
         with Exit -> ());
        match !best with
        | None -> None
        | Some cyc ->
            let arr = Array.of_list cyc in
            let n = Array.length arr in
            Some
              (List.init n (fun i ->
                   let src = arr.(i) and dst = arr.((i + 1) mod n) in
                   match edge_between g src dst with
                   | Some e -> e
                   | None -> { Srz.src; dst; key = "?"; kind = Srz.Reads_from })))

  let certify ?shard_of_node history =
    let g =
      { adj = Hashtbl.create 256; edge_tbl = Hashtbl.create 1024;
        rf = 0; anti = 0; ww = 0 }
    in
    let writer_shard (spec : Spec.t) =
      match shard_of_node with
      | None -> 0
      | Some f -> f spec.Spec.root.Spec.node
    in
    let writer_info = Hashtbl.create 256 in
    let writers_of_key = Hashtbl.create 256 in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind <> Spec.Read_only && has_effect res then begin
          let kinds = write_kinds spec in
          Hashtbl.replace writer_info spec.Spec.id ();
          Hashtbl.iter
            (fun key ow ->
              let cur =
                match Hashtbl.find_opt writers_of_key key with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace writers_of_key key
                ((spec.Spec.id, res.Result.version, writer_shard spec, ow)
                :: cur))
            kinds
        end)
      history;
    Hashtbl.iter
      (fun key ws ->
        let rec pairs = function
          | [] -> ()
          | (id1, v1, s1, ow1) :: rest ->
              List.iter
                (fun (id2, v2, s2, ow2) ->
                  if s1 = s2 && v1 <> v2 && (ow1 || ow2) then begin
                    let src, dst = if v1 < v2 then (id1, id2) else (id2, id1) in
                    add_edge g ~src ~dst ~key ~kind:Srz.Version_order
                  end)
                rest;
              pairs rest
        in
        pairs ws)
      writers_of_key;
    let readers = ref 0 in
    let unknown_count = ref 0 in
    let unknown_tags = ref [] in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if Result.committed res && res.Result.reads <> [] then begin
          incr readers;
          let rid = spec.Spec.id in
          List.iter
            (fun (key, (value : Value.t)) ->
              let seen = value.Value.writers in
              Value.Writers.iter
                (fun w ->
                  if w <> rid then
                    if Hashtbl.mem writer_info w then
                      add_edge g ~src:w ~dst:rid ~key ~kind:Srz.Reads_from
                    else begin
                      incr unknown_count;
                      if List.length !unknown_tags < 20 then
                        unknown_tags := (rid, key, w) :: !unknown_tags
                    end)
                seen;
              List.iter
                (fun (w, _, _, _) ->
                  if w <> rid && not (Value.Writers.mem w seen) then
                    add_edge g ~src:rid ~dst:w ~key ~kind:Srz.Anti_dependency)
                (match Hashtbl.find_opt writers_of_key key with
                | Some l -> l
                | None -> []))
            res.Result.reads
        end)
      history;
    let nodes = Hashtbl.create 256 in
    Hashtbl.iter (fun id () -> Hashtbl.replace nodes id ()) writer_info;
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if Result.committed res && res.Result.reads <> [] then
          Hashtbl.replace nodes spec.Spec.id ())
      history;
    let node_list =
      Hashtbl.fold (fun id () acc -> id :: acc) nodes [] |> List.sort compare
    in
    let cycle = find_cycle g node_list in
    {
      Srz.txns = List.length node_list;
      readers = !readers;
      writers = Hashtbl.length writer_info;
      edges = g.rf + g.anti + g.ww;
      rf_edges = g.rf;
      anti_edges = g.anti;
      ww_edges = g.ww;
      unknown_count = !unknown_count;
      unknown_tags = List.rev !unknown_tags;
      cycle;
    }

  (* ---- atomicity *)

  let observed_of (res : Result.t) =
    List.fold_left
      (fun acc (key, value) ->
        let prev =
          match Str_map.find_opt key acc with Some s -> s | None -> Int_set.empty
        in
        Str_map.add key (Value.Writers.fold Int_set.add value.Value.writers prev) acc)
      Str_map.empty res.Result.reads

  let atomicity history =
    let update_keys = Hashtbl.create 256 in
    let writers_by_key = Hashtbl.create 256 in
    let effectless = Hashtbl.create 64 in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind <> Spec.Read_only then begin
          if has_effect res then begin
            let keys = Spec.keys_written spec in
            Hashtbl.replace update_keys spec.Spec.id keys;
            List.iter
              (fun k ->
                let cur =
                  match Hashtbl.find_opt writers_by_key k with
                  | Some ids -> ids
                  | None -> []
                in
                Hashtbl.replace writers_by_key k (spec.Spec.id :: cur))
              keys
          end
          else Hashtbl.replace effectless spec.Spec.id ()
        end)
      history;
    let reads_checked = ref 0 in
    let pairs_checked = ref 0 in
    let partial_reads = ref 0 in
    let dirty_reads = ref 0 in
    let examples = ref [] in
    let note_example r u =
      if List.length !examples < 10 then examples := (r, u) :: !examples
    in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
          incr reads_checked;
          let observed = observed_of res in
          Str_map.iter
            (fun _key tags ->
              Int_set.iter
                (fun id ->
                  if Hashtbl.mem effectless id then begin
                    incr dirty_reads;
                    note_example spec.Spec.id id
                  end)
                tags)
            observed;
          let candidates =
            Str_map.fold
              (fun key _ acc ->
                match Hashtbl.find_opt writers_by_key key with
                | None -> acc
                | Some ids -> List.fold_left (fun a i -> Int_set.add i a) acc ids)
              observed Int_set.empty
          in
          Int_set.iter
            (fun u ->
              match Hashtbl.find_opt update_keys u with
              | None -> ()
              | Some written ->
                  let overlap =
                    List.filter (fun k -> Str_map.mem k observed) written
                  in
                  if List.length overlap >= 2 then begin
                    incr pairs_checked;
                    let seen =
                      List.filter
                        (fun k -> Int_set.mem u (Str_map.find k observed))
                        overlap
                    in
                    let n_seen = List.length seen in
                    if n_seen > 0 && n_seen < List.length overlap then begin
                      incr partial_reads;
                      note_example spec.Spec.id u
                    end
                  end)
            candidates
        end)
      history;
    {
      Atomicity.reads_checked = !reads_checked;
      pairs_checked = !pairs_checked;
      partial_reads = !partial_reads;
      dirty_reads = !dirty_reads;
      examples = List.rev !examples;
    }

  (* ---- staleness *)

  let staleness history =
    let settle_time = Hashtbl.create 256 in
    let writers_by_key = Hashtbl.create 256 in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind <> Spec.Read_only && Result.committed res then begin
          Hashtbl.replace settle_time spec.Spec.id res.Result.complete_time;
          List.iter
            (fun k ->
              let cur =
                match Hashtbl.find_opt writers_by_key k with
                | Some ids -> ids
                | None -> []
              in
              Hashtbl.replace writers_by_key k (spec.Spec.id :: cur))
            (Spec.keys_written spec)
        end)
      history;
    let reads = ref 0 in
    let reads_with_misses = ref 0 in
    let missed_total = ref 0 in
    let lag_sum = ref 0. in
    let max_lag = ref 0. in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
          incr reads;
          let observed = observed_of res in
          let candidates =
            Str_map.fold
              (fun key _ acc ->
                match Hashtbl.find_opt writers_by_key key with
                | None -> acc
                | Some ids -> List.fold_left (fun a i -> Int_set.add i a) acc ids)
              observed Int_set.empty
          in
          let oldest_miss = ref None in
          let misses = ref 0 in
          Int_set.iter
            (fun u ->
              match Hashtbl.find_opt settle_time u with
              | Some settled when settled <= res.Result.submit_time ->
                  let seen =
                    Str_map.exists (fun _ tags -> Int_set.mem u tags) observed
                  in
                  if not seen then begin
                    incr misses;
                    oldest_miss :=
                      Some
                        (match !oldest_miss with
                        | None -> settled
                        | Some prev -> Float.min prev settled)
                  end
              | _ -> ())
            candidates;
          if !misses > 0 then begin
            incr reads_with_misses;
            missed_total := !missed_total + !misses;
            match !oldest_miss with
            | Some settled ->
                let lag = res.Result.submit_time -. settled in
                lag_sum := !lag_sum +. lag;
                if lag > !max_lag then max_lag := lag
            | None -> ()
          end
        end)
      history;
    {
      Staleness.reads = !reads;
      reads_with_misses = !reads_with_misses;
      missed_total = !missed_total;
      mean_missed =
        (if !reads = 0 then 0.
         else float_of_int !missed_total /. float_of_int !reads);
      mean_lag =
        (if !reads_with_misses = 0 then 0.
         else !lag_sum /. float_of_int !reads_with_misses);
      max_lag = !max_lag;
    }

  (* ---- version reads *)

  let fence_of ~vector ~shard_of_node (spec : Spec.t) ~default key =
    match vector spec.Spec.id with
    | None -> default
    | Some vec ->
        let fence = ref (-1) in
        let rec scan (st : Spec.subtxn) =
          if List.exists (function Op.Read k -> k = key | _ -> false) st.Spec.ops
          then begin
            let s = shard_of_node st.Spec.node in
            if s >= 0 && s < Array.length vec && vec.(s) > !fence then
              fence := vec.(s)
          end;
          List.iter scan st.Spec.children
        in
        scan spec.Spec.root;
        if !fence < 0 then default else !fence

  let version_reads ?(vector = fun _ -> None) ?(shard_of_node = fun _ -> 0)
      history =
    let writers_of_key = Hashtbl.create 256 in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind <> Spec.Read_only && has_effect res then
          List.iter
            (fun key ->
              let cur =
                match Hashtbl.find_opt writers_of_key key with
                | Some l -> l
                | None -> []
              in
              Hashtbl.replace writers_of_key key
                ((spec.Spec.id, res.Result.version) :: cur))
            (Spec.keys_written spec))
      history;
    let reads_checked = ref 0 in
    let observations = ref 0 in
    let violations = ref [] in
    let violation_count = ref 0 in
    List.iter
      (fun ((spec : Spec.t), (res : Result.t)) ->
        if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
          incr reads_checked;
          let root_v = res.Result.version in
          Str_map.iter
            (fun key seen ->
              incr observations;
              let v = fence_of ~vector ~shard_of_node spec ~default:root_v key in
              let writers =
                match Hashtbl.find_opt writers_of_key key with
                | Some l -> l
                | None -> []
              in
              let expected =
                List.filter_map
                  (fun (id, wv) -> if wv <= v then Some id else None)
                  writers
                |> Int_set.of_list
              in
              let known_later =
                List.filter_map
                  (fun (id, wv) -> if wv > v then Some id else None)
                  writers
                |> Int_set.of_list
              in
              let missing = Int_set.diff expected seen in
              let surplus = Int_set.diff seen expected in
              let leaked_future = Int_set.inter surplus known_later in
              let unknown = Int_set.diff surplus known_later in
              if
                not
                  (Int_set.is_empty missing
                  && Int_set.is_empty leaked_future
                  && Int_set.is_empty unknown)
              then begin
                incr violation_count;
                if List.length !violations < 20 then
                  violations :=
                    {
                      Vr.read_txn = spec.Spec.id;
                      key;
                      version = v;
                      missing = Int_set.elements missing;
                      leaked_future = Int_set.elements leaked_future;
                      unknown = Int_set.elements unknown;
                    }
                    :: !violations
              end)
            (observed_of res)
        end)
      history;
    {
      Vr.reads_checked = !reads_checked;
      observations = !observations;
      violations = List.rev !violations;
      violation_count = !violation_count;
    }
end

(* Random histories for the differential property: 1-3 shards (shard =
   node mod shards), sparse ids from a non-zero (possibly negative) base
   listed in shuffled order, overwrite / increment / append mixes,
   committed, compensated and truly aborted outcomes, keys read twice in
   one transaction and readers that also write. Most readers observe a
   per-key prefix of each key's writers (so histories range from acyclic
   to long cycles); the rest observe arbitrary tags, including ids no
   transaction has. *)
let gen_history =
  let open QCheck.Gen in
  let* shards = int_range 1 3 in
  let* n = int_range 1 16 in
  let* base = int_range (-40) 1000 in
  let* gaps = list_repeat n (int_range 1 4) in
  let ids =
    List.rev
      (snd (List.fold_left (fun (at, acc) g -> (at + g, at :: acc)) (base, []) gaps))
  in
  let last = List.fold_left max base ids in
  let key = map (Printf.sprintf "k%d") (int_range 0 4) in
  let write =
    let* k = key in
    frequency
      [
        (3, return (Op.Incr (k, 1.)));
        (1, return (Op.Overwrite (k, 2.)));
        (1, return (Op.Append (k, "e")));
      ]
  in
  let* specs =
    flatten_l
      (List.map
         (fun id ->
           let* node = int_range 0 5 in
           let* reads = list_size (int_range 0 3) key in
           let* writes = list_size (int_range 0 3) write in
           let* child = opt (pair (int_range 0 5) key) in
           let children =
             match child with
             | Some (cnode, k) -> [ Spec.subtxn cnode [ Op.Read k ] ]
             | None -> []
           in
           return
             (Spec.make ~id
                (Spec.subtxn ~children node
                   (List.map (fun k -> Op.Read k) reads @ writes))))
         ids)
  in
  let writers_of k =
    List.filter_map
      (fun (spec : Spec.t) ->
        if List.mem k (Spec.keys_written spec) then Some spec.Spec.id else None)
      specs
  in
  let cut = int_range (base - 1) (last + 1) in
  let* txns =
    flatten_l
      (List.map
         (fun (spec : Spec.t) ->
           let* outcome =
             frequency
               [
                 (6, return Result.Committed);
                 (2, return (Result.Aborted "compensated"));
                 (2, return (Result.Aborted "deadlock"));
               ]
           in
           let* version = int_range 0 3 in
           let* submit = float_bound_inclusive 4. in
           let* complete = float_bound_inclusive 4. in
           let* snapshot = cut in
           let* arbitrary = frequency [ (3, return false); (1, return true) ] in
           let tags k =
             if arbitrary then
               list_size (int_range 0 4)
                 (oneof [ oneofl ids; int_range (base - 3) (base + 60) ])
             else
               let* c = frequency [ (5, return snapshot); (1, cut) ] in
               return (List.filter (fun w -> w < c) (writers_of k))
           in
           let read_keys = Spec.keys_read spec in
           let* observed =
             flatten_l
               (List.map
                  (fun k ->
                    let* tags = tags k in
                    return (k, value_with tags))
                  (read_keys @ if read_keys = [] then [] else [ List.hd read_keys ]))
           in
           return
             ( spec,
               {
                 Result.txn_id = spec.Spec.id;
                 served_by = spec.Spec.root.Spec.node;
                 outcome;
                 version;
                 reads = observed;
                 submit_time = submit;
                 root_commit_time = submit;
                 complete_time = complete;
               } ))
         specs)
  in
  let* history = shuffle_l txns in
  (* Read vectors for some readers (sharded version-read fences). *)
  let* vec_ids = list_size (int_range 0 4) (oneofl ids) in
  let* comps = array_repeat shards (int_range 0 3) in
  return (shards, history, vec_ids, comps)

let show_history (shards, history, _, _) =
  Printf.sprintf "shards=%d\n%s" shards
    (String.concat "\n"
       (List.map
          (fun ((spec : Spec.t), (res : Result.t)) ->
            Format.asprintf "%a %a reads=[%s]" Spec.pp spec Result.pp res
              (String.concat "; "
                 (List.map
                    (fun (k, v) -> Format.asprintf "%s=%a" k Value.pp v)
                    res.Result.reads)))
          history))

let checkers_match_oracle =
  QCheck.Test.make ~name:"checkers: reports equal the set-based oracle"
    ~count:1000
    (QCheck.make ~print:show_history gen_history)
    (fun (shards, history, vec_ids, comps) ->
      let shard_of_node node = node mod shards in
      let vector id = if List.mem id vec_ids then Some comps else None in
      let module Vr = Checker.Version_reads in
      Srz.certify history = Oracle.certify history
      && Srz.certify ~shard_of_node history
         = Oracle.certify ~shard_of_node history
      && Atomicity.check history = Oracle.atomicity history
      && Staleness.measure history = Oracle.staleness history
      && Vr.check history = Oracle.version_reads history
      && Vr.check ~vector ~shard_of_node history
         = Oracle.version_reads ~vector ~shard_of_node history)

let () =
  Alcotest.run "checker"
    [
      ( "atomicity",
        [
          Alcotest.test_case "clean history" `Quick atomicity_clean_history;
          Alcotest.test_case "all-or-nothing" `Quick atomicity_all_or_nothing;
          Alcotest.test_case "detects partial" `Quick atomicity_detects_partial;
          Alcotest.test_case "single-key overlap ignored" `Quick
            atomicity_single_key_overlap_ignored;
          Alcotest.test_case "dirty read" `Quick atomicity_dirty_read;
          Alcotest.test_case "compensated is effectful" `Quick
            atomicity_compensated_counts_as_effectful;
          Alcotest.test_case "aborted reads skipped" `Quick
            atomicity_aborted_reads_skipped;
        ] );
      ( "staleness",
        [
          Alcotest.test_case "counts missed" `Quick staleness_counts_missed;
          Alcotest.test_case "future updates excluded" `Quick
            staleness_future_updates_not_missed;
          Alcotest.test_case "fresh reads" `Quick staleness_fresh_reads;
        ] );
      ( "version-reads",
        [
          Alcotest.test_case "exact set accepted" `Quick version_reads_exact;
          Alcotest.test_case "missing detected" `Quick version_reads_missing;
          Alcotest.test_case "leak detected" `Quick version_reads_leak;
          Alcotest.test_case "unknown writer distinguished" `Quick
            version_reads_unknown_writer;
          Alcotest.test_case "aborted excluded" `Quick
            version_reads_aborted_excluded;
        ] );
      ( "replay",
        [
          Alcotest.test_case "detects mismatch" `Quick replay_detects_mismatch;
          Alcotest.test_case "skips overwritten keys" `Quick
            replay_skips_overwritten_keys;
          Alcotest.test_case "uncommitted excluded" `Quick
            replay_uncommitted_excluded;
          Alcotest.test_case "missing key is zero" `Quick
            replay_missing_key_is_zero;
        ] );
      ( "serializability",
        [
          Alcotest.test_case "lost update" `Quick srz_lost_update;
          Alcotest.test_case "write skew" `Quick srz_write_skew;
          Alcotest.test_case "read-only anomaly" `Quick srz_read_only_anomaly;
          Alcotest.test_case "non-repeatable read" `Quick
            srz_non_repeatable_read;
          Alcotest.test_case "version-order cycle" `Quick
            srz_version_order_cycle;
          Alcotest.test_case "commuting writers unordered" `Quick
            srz_commuting_writers_not_ordered;
          Alcotest.test_case "clean history" `Quick srz_clean_history;
          Alcotest.test_case "unknown tag reported" `Quick
            srz_unknown_tag_reported;
          Alcotest.test_case "duplicate ids rejected" `Quick
            duplicate_ids_rejected;
          QCheck_alcotest.to_alcotest srz_anomalies_flagged;
        ] );
      ("oracle", [ QCheck_alcotest.to_alcotest checkers_match_oracle ]);
    ]
