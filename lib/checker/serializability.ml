module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value
module Op = Txn.Op

type edge_kind = Reads_from | Anti_dependency | Version_order

type edge = { src : int; dst : int; key : string; kind : edge_kind }

type report = {
  txns : int;
  readers : int;
  writers : int;
  edges : int;
  rf_edges : int;
  anti_edges : int;
  ww_edges : int;
  unknown_count : int;
  unknown_tags : (int * string * int) list;
  cycle : edge list option;
}

module Ix = History_index
module Ibuf = History_index.Ibuf

(* Per-key write classification of a spec: key -> wrote_overwrite. A key
   counts as overwritten if any operation on it anywhere in the tree is an
   [Overwrite]. *)
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

(* ------------------------------------------------------------ graph *)

(* Edges over slots, one entry per distinct (src, dst, kind), packed as
   [src lsl 31 lor dst] (slots stay far below 2^31). Keys are not stored:
   only a cycle witness needs one, and {!witness_edge} recomputes it. *)
type graph = {
  pairs : Ibuf.t;
  mutable rf : int;
  mutable anti : int;
  mutable ww : int;
  ww_keys : (int * int, int) Hashtbl.t;
      (** version-order edge (src, dst) -> the first key that orders it *)
}

let src_of pair = pair lsr 31
let dst_of pair = pair land 0x7FFF_FFFF

(* The caller has already deduplicated the edge. *)
let add_edge g ~src ~dst kind =
  Ibuf.push g.pairs ((src lsl 31) lor dst);
  match kind with
  | Reads_from -> g.rf <- g.rf + 1
  | Anti_dependency -> g.anti <- g.anti + 1
  | Version_order -> g.ww <- g.ww + 1

(* Compressed adjacency: [adj.(row.(v)) .. adj.(row.(v + 1) - 1)] are the
   distinct successors of [v], ascending. Two counting sorts — sources
   bucketed by destination, then scattered to their rows in destination
   order — order every row, reading the edge buffer sequentially. *)
let adjacency n g =
  let m = Ibuf.length g.pairs in
  let prefix_sums count =
    for v = 0 to n - 1 do
      count.(v + 1) <- count.(v + 1) + count.(v)
    done
  in
  let start = Array.make (n + 1) 0 and row = Array.make (n + 1) 0 in
  Ibuf.iter
    (fun pair ->
      let d = dst_of pair and s = src_of pair in
      start.(d + 1) <- start.(d + 1) + 1;
      row.(s + 1) <- row.(s + 1) + 1)
    g.pairs;
  prefix_sums start;
  prefix_sums row;
  let src_by_dst = Array.make m 0 and next = Array.sub start 0 n in
  Ibuf.iter
    (fun pair ->
      let d = dst_of pair in
      src_by_dst.(next.(d)) <- src_of pair;
      next.(d) <- next.(d) + 1)
    g.pairs;
  let adj = Array.make m 0 and fill = Array.sub row 0 n in
  for d = 0 to n - 1 do
    for i = start.(d) to start.(d + 1) - 1 do
      let s = src_by_dst.(i) in
      adj.(fill.(s)) <- d;
      fill.(s) <- fill.(s) + 1
    done
  done;
  (* Drop repeated successors: edges of different kinds may join the same
     two transactions. *)
  let w = ref 0 in
  for v = 0 to n - 1 do
    let lo = row.(v) and hi = row.(v + 1) in
    row.(v) <- !w;
    for i = lo to hi - 1 do
      if i = lo || adj.(i) <> adj.(i - 1) then begin
        adj.(!w) <- adj.(i);
        incr w
      end
    done
  done;
  row.(n) <- !w;
  (row, adj)

(* ----------------------------------------------------- cycle search *)

(* Iterative Tarjan over every slot in ascending (= id) order. Returns the
   smallest strongly-connected component with >= 2 nodes, members in push
   order; among equal sizes the one completed last. Empty if acyclic. *)
let smallest_scc n (row, adj) =
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false in
  let stack = Array.make n 0 and sp = ref 0 in
  let call_v = Array.make n 0 and call_p = Array.make n 0 and depth = ref 0 in
  let counter = ref 0 in
  let best = ref [||] in
  let enter v =
    index.(v) <- !counter;
    low.(v) <- !counter;
    incr counter;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    call_v.(!depth) <- v;
    call_p.(!depth) <- row.(v);
    incr depth
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      enter root;
      while !depth > 0 do
        let top = !depth - 1 in
        let v = call_v.(top) and p = call_p.(top) in
        if p < row.(v + 1) then begin
          call_p.(top) <- p + 1;
          let w = adj.(p) in
          if index.(w) < 0 then enter w
          else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        end
        else begin
          decr depth;
          if low.(v) = index.(v) then begin
            let base = ref (!sp - 1) in
            while stack.(!base) <> v do
              decr base
            done;
            for i = !base to !sp - 1 do
              on_stack.(stack.(i)) <- false
            done;
            let size = !sp - !base in
            if size >= 2 && (!best = [||] || size <= Array.length !best) then
              best := Array.sub stack !base size;
            sp := !base
          end;
          if !depth > 0 then begin
            let parent = call_v.(!depth - 1) in
            low.(parent) <- min low.(parent) low.(v)
          end
        end
      done
    end
  done;
  !best

(* Shortest cycle through [start] staying inside [member]: BFS until an
   edge closes back on [start]. Returns the node sequence of the cycle.
   [parent] is all -1 on entry and on return. *)
let shortest_cycle_through (row, adj) ~member ~parent ~queue start =
  parent.(start) <- start;
  queue.(0) <- start;
  let head = ref 0 and tail = ref 1 and found = ref None in
  while !found = None && !head < !tail do
    let u = queue.(!head) in
    incr head;
    let p = ref row.(u) in
    while !found = None && !p < row.(u + 1) do
      let w = adj.(!p) in
      incr p;
      if w = start then begin
        (* Reconstruct start ... u, then close with u -> start. *)
        let rec back v acc =
          if v = start then start :: acc else back parent.(v) (v :: acc)
        in
        found := Some (back u [])
      end
      else if member.(w) && parent.(w) < 0 then begin
        parent.(w) <- u;
        queue.(!tail) <- w;
        incr tail
      end
    done
  done;
  for i = 0 to !tail - 1 do
    parent.(queue.(i)) <- -1
  done;
  !found

(* Minimal witness: smallest SCC with >= 2 nodes, then the shortest cycle
   through any of its nodes, as a list of slots. *)
let find_cycle n graph =
  match smallest_scc n graph with
  | [||] -> None
  | scc ->
      let member = Array.make n false in
      Array.iter (fun v -> member.(v) <- true) scc;
      let parent = Array.make n (-1) and queue = Array.make (Array.length scc) 0 in
      let best = ref None in
      (try
         Array.iter
           (fun start ->
             match shortest_cycle_through graph ~member ~parent ~queue start with
             | Some c -> (
                 match !best with
                 | Some b when List.length b <= List.length c -> ()
                 | _ ->
                     best := Some c;
                     if List.length c = 2 then raise Exit)
             | None -> ())
           scc
       with Exit -> ());
      !best

(* The witness edge src -> dst, preferring reads-from for readability.
   Its key is the one the edge was first drawn with: the first of the
   reader's observations, in read order, that draws it. *)
let witness_edge ix g src dst =
  let first_read r draws =
    let found = ref None in
    Ix.iter_reads ix r (fun k (value : Value.t) ->
        if !found = None && draws k value.Value.writers then found := Some k);
    !found
  in
  let has slot tags = Value.Writers.mem (Ix.id ix slot) tags in
  let reads_from () =
    if Ix.is_writer ix src && src <> dst then
      first_read dst (fun _ tags -> has src tags)
    else None
  in
  let anti_dependency () =
    if Ix.is_writer ix dst && src <> dst then
      first_read src (fun k tags -> Ix.writes ix dst k && not (has dst tags))
    else None
  in
  let edge kind key =
    { src = Ix.id ix src; dst = Ix.id ix dst; key = Ix.key_name ix key; kind }
  in
  match reads_from () with
  | Some k -> edge Reads_from k
  | None -> (
      match anti_dependency () with
      | Some k -> edge Anti_dependency k
      | None -> (
          match Hashtbl.find_opt g.ww_keys (src, dst) with
          | Some k -> edge Version_order k
          | None ->
              (* Unreachable: the BFS walked real edges. *)
              { src = Ix.id ix src; dst = Ix.id ix dst; key = "?";
                kind = Reads_from }))

(* ----------------------------------------------------------- certify *)

(* Version-order edges: conflicting writer pairs at different versions of
   the same shard's frontier, lower version first. Commuting pairs are
   unordered, and cross-shard pairs are never ordered by raw version number
   (shard frontiers advance independently, so equal numbers name different
   epochs — any real ordering between such writers surfaces through
   reads-from/anti-dependency edges instead). Each edge keeps the first key
   that orders it, in the order of a key -> writers table filled writer by
   writer in history order: the witness contract pins that order. *)
let version_order_edges ix g ~writer_shard =
  let writers_of_key = Hashtbl.create 256 in
  Ix.iter_history ix (fun s ->
      if Ix.is_writer ix s then begin
        let spec = Ix.spec ix s in
        let entry ow =
          (s, (Ix.result ix s).Result.version, writer_shard spec, ow)
        in
        (* lint: hash-order-ok — fills [writers_of_key]; its key order is
           the pinned witness order described above. *)
        Hashtbl.iter
          (fun key ow ->
            let cur =
              match Hashtbl.find_opt writers_of_key key with
              | Some l -> l
              | None -> []
            in
            Hashtbl.replace writers_of_key key (entry ow :: cur))
          (write_kinds spec)
      end);
  (* lint: hash-order-ok — the pinned witness order: each edge keeps the
     first key this enumeration orders it by. *)
  Hashtbl.iter
    (fun key ws ->
      let key = Ix.key_id ix key in
      List.iter
        (fun (w1, v1, s1, ow1) ->
          if ow1 then
            List.iter
              (fun (w2, v2, s2, _) ->
                if s1 = s2 && v1 <> v2 then begin
                  let src, dst = if v1 < v2 then (w1, w2) else (w2, w1) in
                  if not (Hashtbl.mem g.ww_keys (src, dst)) then begin
                    Hashtbl.replace g.ww_keys (src, dst) key;
                    add_edge g ~src ~dst Version_order
                  end
                end)
              ws)
        ws)
    writers_of_key

let certify ?shard_of_node history =
  let ix = Ix.build history in
  let n = Ix.size ix in
  (* Sized once: a buffer that grows by doubling would touch twice its
     final size in fresh memory. *)
  let g =
    { pairs = Ibuf.create ~capacity:(Ix.merged_writers ix + 64) ();
      rf = 0; anti = 0; ww = 0; ww_keys = Hashtbl.create 16 }
  in
  (* Reads-from and anti-dependency edges, plus unknown-tag accounting.
     Checked per observation (not unioned per key), so a non-repeatable
     read inside one transaction closes a two-edge cycle. Every reads-from
     edge ends at the reader being processed and every anti-dependency
     edge starts at it, so a per-slot stamp of the last reader dedups
     each kind in O(1). *)
  let rf_stamp = Array.make n (-1) and anti_stamp = Array.make n (-1) in
  let readers = ref 0 in
  let unknown_count = ref 0 in
  let unknown_tags = ref [] in
  let reader r =
    let res = Ix.result ix r in
    Result.committed res && res.Result.reads <> []
  in
  Ix.iter_history ix (fun r ->
      if reader r then begin
        incr readers;
        let rid = Ix.id ix r in
        Ix.iter_reads ix r (fun key (value : Value.t) ->
            let reads_from w =
              if w <> r && rf_stamp.(w) <> r then begin
                rf_stamp.(w) <- r;
                add_edge g ~src:w ~dst:r Reads_from
              end
            in
            (* Effect-ful writers of this key whose tag is absent from this
               observation: the read happened first. *)
            let read_before w =
              if w <> r && anti_stamp.(w) <> r then begin
                anti_stamp.(w) <- r;
                add_edge g ~src:r ~dst:w Anti_dependency
              end
            in
            (* A tag this key's writers do not account for: reads-from if
               an effect-ful transaction wrote it elsewhere, else unknown. *)
            let stray t =
              if t <> rid then begin
                let w = Ix.slot_of_id ix t in
                if w >= 0 && Ix.is_writer ix w then reads_from w
                else begin
                  if !unknown_count < 20 then
                    unknown_tags := (rid, Ix.key_name ix key, t) :: !unknown_tags;
                  incr unknown_count
                end
              end
            in
            Ix.merge ix key value.Value.writers ~hit:reads_from
              ~miss:read_before ~stray)
      end);
  let writers = ref 0 and overwriter = ref false in
  for s = 0 to n - 1 do
    if Ix.is_writer ix s then begin
      incr writers;
      if (Ix.spec ix s).Spec.kind = Spec.Non_commuting then overwriter := true
    end
  done;
  (* Only a non-commuting writer can order a pair. *)
  if !overwriter then begin
    (* A writer's shard (sharded histories only): update trees are confined
       to one shard, so the root node determines it. Version numbers are
       per-shard frontiers — comparable only within a shard. *)
    let writer_shard (spec : Spec.t) =
      match shard_of_node with
      | None -> 0
      | Some f -> f spec.Spec.root.Spec.node
    in
    version_order_edges ix g ~writer_shard
  end;
  (* Node set: writers plus committed readers (readers that also write are
     already present). Slots are in id order, so the SCC/BFS walk below
     visits them exactly as a sorted node list would. *)
  let txns = ref 0 in
  for s = 0 to n - 1 do
    if Ix.is_writer ix s || reader s then incr txns
  done;
  let cycle =
    find_cycle n (adjacency n g)
    |> Option.map (fun cyc ->
           (* Node sequence -> edge list, wrapping around. *)
           let arr = Array.of_list cyc in
           let len = Array.length arr in
           List.init len (fun i ->
               witness_edge ix g arr.(i) arr.((i + 1) mod len)))
  in
  {
    txns = !txns;
    readers = !readers;
    writers = !writers;
    edges = g.rf + g.anti + g.ww;
    rf_edges = g.rf;
    anti_edges = g.anti;
    ww_edges = g.ww;
    unknown_count = !unknown_count;
    unknown_tags = List.rev !unknown_tags;
    cycle;
  }

let serializable r = r.cycle = None

let pp_kind ppf = function
  | Reads_from -> Format.pp_print_string ppf "rf"
  | Anti_dependency -> Format.pp_print_string ppf "rw"
  | Version_order -> Format.pp_print_string ppf "ww"

let pp_edge ppf e =
  Format.fprintf ppf "%d -%a[%s]-> %d" e.src pp_kind e.kind e.key e.dst

let pp_witness ppf r =
  match r.cycle with
  | None -> ()
  | Some edges ->
      Format.fprintf ppf "@[<v 2>MVSG cycle (%d edges):" (List.length edges);
      List.iter (fun e -> Format.fprintf ppf "@ %a" pp_edge e) edges;
      Format.fprintf ppf "@]"

let pp ppf r =
  Format.fprintf ppf
    "txns=%d (w=%d r=%d) edges=%d (rf=%d rw=%d ww=%d) unknown=%d %s"
    r.txns r.writers r.readers r.edges r.rf_edges r.anti_edges r.ww_edges
    r.unknown_count
    (if serializable r then "1SR" else "NOT-1SR");
  if r.cycle <> None then Format.fprintf ppf "@ %a" pp_witness r
