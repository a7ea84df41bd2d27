(* Equivalence harness for the windowed flat counter tables.

   [Threev.Counters] replaced a Hashtbl-of-rows representation with a dense
   sliding window of [Counters.window] slots plus a spill table for
   out-of-window versions. The two representations must be observationally
   identical under every interleaving of increments, reads, snapshots and
   GC — including increments landing below an advanced GC floor (a late
   completion resurrecting a collected version) and far above the window
   (a version opened before the floor caught up), and floors that adopt
   spill rows back into the window. [Ref_counters] below reimplements the
   old boxed representation as the oracle; qcheck drives both through
   random op sequences and compares every observable after each step.

   Snapshots are sparse (peer, count) pairs and must equal exactly the
   nonzero entries of the oracle's dense row; the version tally must count
   the oracle's version set, also when several tables share it.

   [Threev.Vwindow] (windowed int-per-version tallies, same windowing
   discipline) gets the same treatment against a plain Hashtbl oracle.

   Last, the coordinator's sparse quiescence decision
   ([Repl.Quorum.settled] / [unchanged]) is checked against the dense
   matrix comparison it replaced, kept below as [Dense_poll]. *)

module Counters = Threev.Counters
module Vwindow = Threev.Vwindow
module Quorum = Repl.Quorum

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* ------------------------------------------------ reference oracle *)

module Ref_counters = struct
  type row = { req : int array; comp : int array }
  type t = { nodes : int; tbl : (int, row) Hashtbl.t }

  let create ~nodes = { nodes; tbl = Hashtbl.create 8 }

  let row t v =
    match Hashtbl.find_opt t.tbl v with
    | Some r -> r
    | None ->
        let r = { req = Array.make t.nodes 0; comp = Array.make t.nodes 0 } in
        Hashtbl.replace t.tbl v r;
        r

  let ensure_version t v = ignore (row t v)

  let incr_r t ~version ~dst =
    let r = row t version in
    r.req.(dst) <- r.req.(dst) + 1

  let incr_c t ~version ~src =
    let r = row t version in
    r.comp.(src) <- r.comp.(src) + 1

  let r t ~version ~dst =
    match Hashtbl.find_opt t.tbl version with
    | None -> 0
    | Some row -> row.req.(dst)

  let c t ~version ~src =
    match Hashtbl.find_opt t.tbl version with
    | None -> 0
    | Some row -> row.comp.(src)

  let snapshot_r t ~version =
    match Hashtbl.find_opt t.tbl version with
    | None -> Array.make t.nodes 0
    | Some row -> Array.copy row.req

  let snapshot_c t ~version =
    match Hashtbl.find_opt t.tbl version with
    | None -> Array.make t.nodes 0
    | Some row -> Array.copy row.comp

  let versions t =
    Hashtbl.fold (fun v _ acc -> v :: acc) t.tbl [] |> List.sort Int.compare

  let gc_below t v =
    let dead =
      Hashtbl.fold (fun w _ acc -> if w < v then w :: acc else acc) t.tbl []
    in
    List.iter (Hashtbl.remove t.tbl) dead
end

(* -------------------------------------------------- op sequences *)

type op =
  | Incr_r of int * int  (* version, dst *)
  | Incr_c of int * int  (* version, src *)
  | Ensure of int
  | Gc of int

let op_to_string = function
  | Incr_r (v, d) -> Printf.sprintf "Incr_r(%d,%d)" v d
  | Incr_c (v, s) -> Printf.sprintf "Incr_c(%d,%d)" v s
  | Ensure v -> Printf.sprintf "Ensure(%d)" v
  | Gc v -> Printf.sprintf "Gc(%d)" v

(* Versions range over several windows' worth of values, so a run visits
   in-window fast paths, above-window spills, below-floor resurrections
   (an [Incr_*] at a version an earlier [Gc] collected), and GC-edge
   adoption of spill rows. *)
let max_version = 6 * Counters.window

let op_gen nodes =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2 (fun v d -> Incr_r (v, d)) (int_bound max_version)
            (int_bound (nodes - 1)) );
        ( 5,
          map2 (fun v s -> Incr_c (v, s)) (int_bound max_version)
            (int_bound (nodes - 1)) );
        (1, map (fun v -> Ensure v) (int_bound max_version));
        (2, map (fun v -> Gc v) (int_bound max_version));
      ])

let ops_arbitrary nodes =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map op_to_string ops))
    QCheck.Gen.(list_size (int_range 0 200) (op_gen nodes))

let apply_real cnt = function
  | Incr_r (version, dst) -> Counters.incr_r cnt ~version ~dst
  | Incr_c (version, src) -> Counters.incr_c cnt ~version ~src
  | Ensure version -> Counters.ensure_version cnt version
  | Gc version -> Counters.gc_below cnt version

let apply_ref oracle = function
  | Incr_r (version, dst) -> Ref_counters.incr_r oracle ~version ~dst
  | Incr_c (version, src) -> Ref_counters.incr_c oracle ~version ~src
  | Ensure version -> Ref_counters.ensure_version oracle version
  | Gc version -> Ref_counters.gc_below oracle version

(* [sparse_of pl dense]: the pairs of [pl] have distinct peers and nonzero
   counts, and are exactly the nonzero entries of [dense]. *)
let sparse_of pl dense =
  let n = Array.length dense in
  let seen = Array.make n false in
  let ok = ref (Array.length pl mod 2 = 0) in
  let pairs = ref 0 in
  let j = ref 0 in
  while !ok && !j + 1 < Array.length pl do
    let peer = pl.(!j) and count = pl.(!j + 1) in
    if peer < 0 || peer >= n || seen.(peer) || count = 0 || dense.(peer) <> count
    then ok := false
    else seen.(peer) <- true;
    incr pairs;
    j := !j + 2
  done;
  !ok && !pairs = Array.fold_left (fun k x -> if x <> 0 then k + 1 else k) 0 dense

(* Every observable the engine uses, compared over the full probe space.
   Snapshots are compared against the nonzero entries of the dense rows.
   [fold_versions] is probed with min/max, the commutative folds the
   engine runs on the poll path. *)
let observably_equal nodes cnt oracle =
  let ok = ref true in
  for v = 0 to max_version do
    for node = 0 to nodes - 1 do
      if Counters.r cnt ~version:v ~dst:node <> Ref_counters.r oracle ~version:v ~dst:node
      then ok := false;
      if Counters.c cnt ~version:v ~src:node <> Ref_counters.c oracle ~version:v ~src:node
      then ok := false
    done;
    if not
         (sparse_of (Counters.snapshot_r cnt ~version:v)
            (Ref_counters.snapshot_r oracle ~version:v))
    then ok := false;
    if not
         (sparse_of (Counters.snapshot_c cnt ~version:v)
            (Ref_counters.snapshot_c oracle ~version:v))
    then ok := false
  done;
  (* [versions] must agree exactly (sorted ascending on both sides)... *)
  if Counters.versions cnt <> Ref_counters.versions oracle then ok := false;
  (* ...and so must commutative folds over the version set. *)
  (match Ref_counters.versions oracle with
  | [] -> ()
  | first :: _ as vs ->
      let last = List.nth vs (List.length vs - 1) in
      if Counters.fold_versions cnt (fun v acc -> min v acc) max_int <> first
      then ok := false;
      if Counters.fold_versions cnt (fun v acc -> max v acc) min_int <> last
      then ok := false);
  !ok

let equivalence_property nodes =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "windowed counters == boxed oracle (%d nodes)" nodes)
    ~count:300 (ops_arbitrary nodes)
    (fun ops ->
      let ty = Counters.tally () in
      let cnt = Counters.create_in ty ~nodes in
      let oracle = Ref_counters.create ~nodes in
      List.for_all
        (fun op ->
          apply_real cnt op;
          apply_ref oracle op;
          observably_equal nodes cnt oracle
          && Counters.distinct_versions ty
             = List.length (Ref_counters.versions oracle))
        ops)

(* Three tables sharing one tally, as a shard's members do: after every
   operation on any of them the tally's distinct count is the size of the
   union of their version sets. *)
let shared_tally_property =
  let nodes = 3 and tables = 3 in
  QCheck.Test.make ~name:"shared tally == union of version sets" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map (fun (i, op) -> Printf.sprintf "%d:%s" i (op_to_string op)) ops))
       QCheck.Gen.(
         list_size (int_range 0 200) (pair (int_bound (tables - 1)) (op_gen nodes))))
    (fun ops ->
      let ty = Counters.tally () in
      let cnts = Array.init tables (fun _ -> Counters.create_in ty ~nodes) in
      List.for_all
        (fun (i, op) ->
          apply_real cnts.(i) op;
          let union =
            Array.fold_left (fun acc c -> Counters.versions c @ acc) [] cnts
            |> List.sort_uniq Int.compare
          in
          Counters.distinct_versions ty = List.length union)
        ops)

(* A directed GC-edge walk qcheck tends to under-sample: monotone floors
   sweeping across a long version run, with spills written ahead of the
   window and resurrected behind it at every step. *)
let gc_edge_walk () =
  let nodes = 3 in
  let cnt = Counters.create ~nodes in
  let oracle = Ref_counters.create ~nodes in
  let both op =
    apply_real cnt op;
    apply_ref oracle op
  in
  for v = 0 to 40 do
    both (Incr_r (v, v mod nodes));
    both (Incr_c (v + Counters.window, (v + 1) mod nodes));
    (* fill far ahead of the window *)
    both (Incr_r (v + (3 * Counters.window), v mod nodes));
    both (Gc v);
    (* resurrect behind the floor *)
    if v > 2 then both (Incr_c (v - 2, v mod nodes));
    Alcotest.(check bool)
      (Printf.sprintf "equal after step %d" v)
      true
      (observably_equal nodes cnt oracle)
  done

(* An unallocated version snapshots as no pairs and fresh snapshots must
   not alias live counter state. *)
let snapshot_isolation () =
  let cnt = Counters.create ~nodes:4 in
  let z = Counters.snapshot_r cnt ~version:9 in
  checki "no pairs" 0 (Array.length z);
  Counters.incr_r cnt ~version:2 ~dst:1;
  let s = Counters.snapshot_r cnt ~version:2 in
  Counters.incr_r cnt ~version:2 ~dst:1;
  checkb "snapshot is a copy" true (s = [| 1; 1 |]);
  checki "live row moved on" 2 (Counters.r cnt ~version:2 ~dst:1)

(* A reclaimed slot starts from zero: the touched cells of the version it
   held before are cleared, and only the new version's peers are listed. *)
let slot_reuse_after_gc () =
  let cnt = Counters.create ~nodes:8 in
  Counters.incr_r cnt ~version:1 ~dst:3;
  Counters.incr_r cnt ~version:1 ~dst:6;
  Counters.incr_c cnt ~version:1 ~src:2;
  Counters.gc_below cnt 2;
  (* version 5 = 1 + window reuses version 1's slot *)
  Counters.incr_r cnt ~version:5 ~dst:6;
  checkb "reused slot lists only new peers" true
    (Counters.snapshot_r cnt ~version:5 = [| 6; 1 |]);
  checkb "old C cells cleared" true (Counters.snapshot_c cnt ~version:5 = [||]);
  checki "old R cell cleared" 0 (Counters.r cnt ~version:5 ~dst:3)

(* ------------------------------------------------------- vwindow *)

let vwindow_equivalence =
  QCheck.Test.make ~name:"vwindow == hashtbl oracle" ~count:300
    (QCheck.make
       ~print:(fun ops ->
         String.concat "; "
           (List.map
              (fun (k, v) ->
                if k = 0 then Printf.sprintf "Add(%d)" v
                else Printf.sprintf "Gc(%d)" v)
              ops))
       QCheck.Gen.(
         list_size (int_range 0 150)
           (pair (int_bound 4) (int_bound (6 * Vwindow.window)))))
    (fun ops ->
      let w = Vwindow.create () in
      let oracle = Hashtbl.create 8 in
      let max_v = 6 * Vwindow.window in
      List.for_all
        (fun (kind, v) ->
          if kind = 0 then begin
            Vwindow.add w v 1;
            Hashtbl.replace oracle v
              ((match Hashtbl.find_opt oracle v with Some n -> n | None -> 0)
              + 1)
          end
          else begin
            Vwindow.gc_below w v;
            Hashtbl.iter
              (fun k _ -> if k < v then Hashtbl.remove oracle k)
              (Hashtbl.copy oracle)
          end;
          let ok = ref true in
          for probe = 0 to max_v do
            let expect =
              match Hashtbl.find_opt oracle probe with Some n -> n | None -> 0
            in
            if Vwindow.get w probe <> expect then ok := false
          done;
          !ok)
        ops)

(* ---------------------------------------------- quiescence oracle *)

(* The dense poll the coordinator ran before replies became sparse: every
   reply rewrites row [p] of [r] and column [p] of [c] in one of two
   parity buffers that are never cleared, and [matrices_agree] compares
   the cells of considered pairs. *)
module Dense_poll = struct
  let matrices_agree ~considered a b =
    let n = Array.length a in
    let ok = ref true in
    for p = 0 to n - 1 do
      for q = 0 to n - 1 do
        if considered.(p) && considered.(q) && a.(p).(q) <> b.(p).(q) then
          ok := false
      done
    done;
    !ok
end

(* One random poll history over [n] nodes: per round, random monotone
   increments (sometimes none, sometimes followed by completing every
   outstanding request, so both decisions come out true often), then a
   random answered mask. Unanswered nodes keep the payloads of whatever
   older round they last answered. Returns the rounds where the sparse
   and dense decisions differ. *)
let poll_history ~n ~rounds rng =
  let cnt = Array.init n (fun _ -> Counters.create ~nodes:n) in
  let v = 1 in
  let dense = Array.init 2 (fun _ ->
      (Array.make_matrix n n 0, Array.make_matrix n n 0)) in
  let sparse = Array.init 2 (fun _ -> (Array.make n [||], Array.make n [||])) in
  let sc = Quorum.scratch n in
  let prev = ref None in
  let bad = ref [] in
  for round = 1 to rounds do
    (match Random.State.int rng 3 with
    | 0 -> ()
    | k ->
        for _ = 1 to Random.State.int rng (2 * n) + 1 do
          let p = Random.State.int rng n and q = Random.State.int rng n in
          if Random.State.bool rng then Counters.incr_r cnt.(p) ~version:v ~dst:q
          else Counters.incr_c cnt.(q) ~version:v ~src:p
        done;
        if k = 2 then
          for p = 0 to n - 1 do
            for q = 0 to n - 1 do
              while
                Counters.c cnt.(q) ~version:v ~src:p
                < Counters.r cnt.(p) ~version:v ~dst:q
              do
                Counters.incr_c cnt.(q) ~version:v ~src:p
              done
            done
          done);
    let all = Random.State.int rng 3 = 0 in
    let got = Array.init n (fun _ -> all || Random.State.int rng 4 > 0) in
    let dr, dc = dense.(round land 1) and sr, scol = sparse.(round land 1) in
    Array.iteri
      (fun i g ->
        if g then begin
          for q = 0 to n - 1 do
            dr.(i).(q) <- Counters.r cnt.(i) ~version:v ~dst:q
          done;
          for p = 0 to n - 1 do
            dc.(p).(i) <- Counters.c cnt.(i) ~version:v ~src:p
          done;
          sr.(i) <- Counters.snapshot_r cnt.(i) ~version:v;
          scol.(i) <- Counters.snapshot_c cnt.(i) ~version:v
        end)
      got;
    let settled_d = Dense_poll.matrices_agree ~considered:got dr dc in
    let settled_s = Quorum.settled sc ~considered:got ~r:sr ~c:scol in
    let stable_d, stable_s =
      match !prev with
      | None -> (false, false)
      | Some (pg, (pdr, pdc), (psr, psc)) ->
          let both = Array.mapi (fun i g -> g && got.(i)) pg in
          ( Dense_poll.matrices_agree ~considered:both pdr dr
            && Dense_poll.matrices_agree ~considered:both pdc dc,
            Quorum.unchanged sc ~considered:both psr sr
            && Quorum.unchanged sc ~considered:both psc scol )
    in
    if settled_d <> settled_s || stable_d <> stable_s then bad := round :: !bad;
    prev := Some (got, (dr, dc), (sr, scol))
  done;
  !bad

let quiescence_oracle_property =
  QCheck.Test.make ~name:"sparse settled/unchanged == dense matrices_agree"
    ~count:300
    QCheck.(pair (int_range 1 64) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      match poll_history ~n ~rounds:12 rng with
      | [] -> true
      | rounds ->
          QCheck.Test.fail_reportf "width %d: decisions differ in rounds %s" n
            (String.concat "," (List.rev_map string_of_int rounds)))

(* The comparators on arbitrary rows, not only monotone ones: random
   small counts, pairs in random order, and a second matrix that is either
   fresh, equal, or equal but for one count moved to another peer (same
   number of pairs, different peer set). One scratch serves every call, as
   the coordinator's does across versions and phases. [settled] reads the
   second matrix as columns, so it agrees exactly when the matrices do. *)
let arbitrary_rows_property =
  QCheck.Test.make ~name:"sparse comparators == dense on arbitrary rows"
    ~count:300
    QCheck.(pair (int_range 1 64) int)
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let sc = Quorum.scratch n in
      let shuffle a =
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        done;
        a
      in
      let pairs cell =
        let nz = List.filter (fun (_, x) -> x <> 0) (List.init n cell) in
        shuffle (Array.of_list nz)
        |> Array.to_list
        |> List.concat_map (fun (i, x) -> [ i; x ])
        |> Array.of_list
      in
      let rows m = Array.init n (fun p -> pairs (fun q -> (q, m.(p).(q)))) in
      let cols m = Array.init n (fun q -> pairs (fun p -> (p, m.(p).(q)))) in
      let fresh () =
        Array.init n (fun _ ->
            Array.init n (fun _ ->
                if Random.State.int rng 6 = 0 then 1 + Random.State.int rng 2 else 0))
      in
      List.for_all
        (fun _ ->
          let a = fresh () in
          let b =
            match Random.State.int rng 3 with
            | 0 -> fresh ()
            | k ->
                let b = Array.map Array.copy a in
                let p = Random.State.int rng n and q = Random.State.int rng n in
                let q' = Random.State.int rng n in
                if k = 2 && b.(p).(q) <> 0 && b.(p).(q') = 0 then begin
                  b.(p).(q') <- b.(p).(q);
                  b.(p).(q) <- 0
                end;
                b
          in
          let considered = Array.init n (fun _ -> Random.State.int rng 4 > 0) in
          let expect = Dense_poll.matrices_agree ~considered a b in
          Quorum.settled sc ~considered ~r:(rows a) ~c:(cols b) = expect
          && Quorum.unchanged sc ~considered (rows a) (rows b) = expect)
        (List.init 20 Fun.id))

let () =
  Alcotest.run "counters-equiv"
    [
      ( "counters",
        Alcotest.test_case "gc edge walk" `Quick gc_edge_walk
        :: Alcotest.test_case "snapshot isolation" `Quick snapshot_isolation
        :: Alcotest.test_case "slot reuse after gc" `Quick slot_reuse_after_gc
        :: List.map QCheck_alcotest.to_alcotest
             [
               equivalence_property 2;
               equivalence_property 5;
               shared_tally_property;
             ] );
      ( "quiesce",
        List.map QCheck_alcotest.to_alcotest
          [ quiescence_oracle_property; arbitrary_rows_property ] );
      ("vwindow", List.map QCheck_alcotest.to_alcotest [ vwindow_equivalence ]);
    ]
