(* Windowed flat layout. The engine's GC keeps at most 3 consecutive
   versions live anywhere (§4's "three distinct numbers suffice"), so the
   common case is a dense window of [window] consecutive versions starting
   at the GC floor [base]. Each in-window version owns one slot
   ([version mod window]); its R and C rows are contiguous [nodes]-wide
   slices of two flat int arrays, so an incr is a tag compare plus one
   array store — no hashing, no per-version boxes. Versions outside
   [base, base + window) — a late completion for a GC'd version, or a
   version opened before the floor caught up — fall back to a spill
   hashtable with the old boxed-row representation. [gc_below] advances
   [base], retires dead slots, and adopts spill rows the window now
   covers, so the slot invariant (slots hold in-window versions only)
   is re-established at every GC edge.

   Sparsity. Every row (slot or spill) carries, per side, the peers whose
   count is nonzero in first-touch order. Counts only grow, so a peer
   enters its list on the 0 -> 1 increment and stays until the row is
   reclaimed; a snapshot copies just those pairs and [claim_slot] zeroes
   just those cells. A poll reply therefore costs O(touched peers), not
   O(nodes).

   Population tally. Every table counts the versions it holds (slot tag
   or spill key) into a [tally], which the engine shares across a
   shard's members: how many tables hold each version. The ≤ 3-version
   debug check then reads the number of distinct versions in O(1). *)

let window = 4

(* Peers with a nonzero count, in first-touch order; grown by doubling. *)
type touched = { mutable len : int; mutable peers : int array }

let touched () = { len = 0; peers = Array.make 4 0 }

let push tch peer =
  if tch.len = Array.length tch.peers then begin
    let grown = Array.make (2 * tch.len) 0 in
    Array.blit tch.peers 0 grown 0 tch.len;
    tch.peers <- grown
  end;
  tch.peers.(tch.len) <- peer;
  tch.len <- tch.len + 1

(* Versions held ([vers.(i)] by [pop.(i)] tables, [i < distinct]); a
   handful of entries, so a linear scan beats any keyed structure. *)
type tally = {
  mutable distinct : int;
  mutable vers : int array;
  mutable pop : int array;
}

let tally () = { distinct = 0; vers = Array.make 4 0; pop = Array.make 4 0 }
let distinct_versions ty = ty.distinct

let hold ty v =
  let rec find i = if i = ty.distinct || ty.vers.(i) = v then i else find (i + 1) in
  let i = find 0 in
  if i < ty.distinct then ty.pop.(i) <- ty.pop.(i) + 1
  else begin
    if i = Array.length ty.vers then begin
      let grow a =
        let g = Array.make (2 * i) 0 in
        Array.blit a 0 g 0 i;
        g
      in
      ty.vers <- grow ty.vers;
      ty.pop <- grow ty.pop
    end;
    ty.vers.(i) <- v;
    ty.pop.(i) <- 1;
    ty.distinct <- i + 1
  end

let release ty v =
  let rec find i =
    if i = ty.distinct then invalid_arg "Counters.release: version not held"
    else if ty.vers.(i) = v then i
    else find (i + 1)
  in
  let i = find 0 in
  if ty.pop.(i) > 1 then ty.pop.(i) <- ty.pop.(i) - 1
  else begin
    let last = ty.distinct - 1 in
    ty.vers.(i) <- ty.vers.(last);
    ty.pop.(i) <- ty.pop.(last);
    ty.distinct <- last
  end

type row = {
  req : int array;
  comp : int array;
  req_touched : touched;
  comp_touched : touched;
}

type t = {
  nodes : int;
  mutable base : int;  (* window covers versions in [base, base + window) *)
  slot_ver : int array;  (* slot -> version held there, or -1 when free *)
  req : int array;  (* window * nodes, slot-major: R rows for slot versions *)
  comp : int array;  (* window * nodes, slot-major: C rows for slot versions *)
  req_touched : touched array;  (* per slot *)
  comp_touched : touched array;  (* per slot *)
  spill : (int, row) Hashtbl.t;  (* out-of-window versions only *)
  tally : tally;
}

let create_in tally ~nodes =
  if nodes <= 0 then invalid_arg "Counters.create: nodes must be positive";
  {
    nodes;
    base = 0;
    slot_ver = Array.make window (-1);
    req = Array.make (window * nodes) 0;
    comp = Array.make (window * nodes) 0;
    req_touched = Array.init window (fun _ -> touched ());
    comp_touched = Array.init window (fun _ -> touched ());
    spill = Hashtbl.create 8;
    tally;
  }

let create ~nodes = create_in (tally ()) ~nodes

let[@inline] in_window t v = v >= t.base && v - t.base < window
let[@inline] slot_of v = v land (window - 1)

let[@inline] bump counts i tch peer =
  let n = counts.(i) in
  if n = 0 then push tch peer;
  counts.(i) <- n + 1

(* Zero the touched cells of the row at [off] and forget them. *)
let clear counts off tch =
  for j = 0 to tch.len - 1 do
    counts.(off + tch.peers.(j)) <- 0
  done;
  tch.len <- 0

(* Claim the slot for an in-window version. Two distinct versions inside a
   [window]-wide range cannot share a residue mod [window], and [gc_below]
   clears tags below [base] before advancing it, so the slot is either
   free or a stale dead tag — never another live in-window version. *)
let claim_slot t v =
  let s = slot_of v in
  clear t.req (s * t.nodes) t.req_touched.(s);
  clear t.comp (s * t.nodes) t.comp_touched.(s);
  if t.slot_ver.(s) >= 0 then release t.tally t.slot_ver.(s);
  t.slot_ver.(s) <- v;
  hold t.tally v;
  s

let spill_row t v =
  match Hashtbl.find_opt t.spill v with
  | Some r -> r
  | None ->
      let r =
        {
          req = Array.make t.nodes 0;
          comp = Array.make t.nodes 0;
          req_touched = touched ();
          comp_touched = touched ();
        }
      in
      Hashtbl.replace t.spill v r;
      hold t.tally v;
      r

let ensure_version t v =
  if in_window t v then begin
    if t.slot_ver.(slot_of v) <> v then ignore (claim_slot t v)
  end
  else ignore (spill_row t v)

let incr_r t ~version ~dst =
  if in_window t version then begin
    let s = slot_of version in
    let s = if t.slot_ver.(s) = version then s else claim_slot t version in
    bump t.req ((s * t.nodes) + dst) t.req_touched.(s) dst
  end
  else begin
    let r = spill_row t version in
    bump r.req dst r.req_touched dst
  end

let incr_c t ~version ~src =
  if in_window t version then begin
    let s = slot_of version in
    let s = if t.slot_ver.(s) = version then s else claim_slot t version in
    bump t.comp ((s * t.nodes) + src) t.comp_touched.(s) src
  end
  else begin
    let r = spill_row t version in
    bump r.comp src r.comp_touched src
  end

(* Reads: a matching slot tag implies the version is in-window and
   allocated, so no range check is needed on the fast path. *)

let r t ~version ~dst =
  let s = slot_of version in
  if t.slot_ver.(s) = version then t.req.((s * t.nodes) + dst)
  else
    match Hashtbl.find_opt t.spill version with
    | None -> 0
    | Some row -> row.req.(dst)

let c t ~version ~src =
  let s = slot_of version in
  if t.slot_ver.(s) = version then t.comp.((s * t.nodes) + src)
  else
    match Hashtbl.find_opt t.spill version with
    | None -> 0
    | Some row -> row.comp.(src)

let sparse counts off tch =
  let k = tch.len in
  if k = 0 then [||]
  else begin
    let out = Array.make (2 * k) 0 in
    for j = 0 to k - 1 do
      let peer = tch.peers.(j) in
      out.(2 * j) <- peer;
      out.((2 * j) + 1) <- counts.(off + peer)
    done;
    out
  end

let snapshot_r t ~version =
  let s = slot_of version in
  if t.slot_ver.(s) = version then sparse t.req (s * t.nodes) t.req_touched.(s)
  else
    match Hashtbl.find_opt t.spill version with
    | None -> [||]
    | Some row -> sparse row.req 0 row.req_touched

let snapshot_c t ~version =
  let s = slot_of version in
  if t.slot_ver.(s) = version then sparse t.comp (s * t.nodes) t.comp_touched.(s)
  else
    match Hashtbl.find_opt t.spill version with
    | None -> [||]
    | Some row -> sparse row.comp 0 row.comp_touched

let versions t =
  (* Hash order is erased by the sort below. *)
  let acc = Hashtbl.fold (fun v _ acc -> v :: acc) t.spill [] in
  let acc =
    Array.fold_left (fun acc v -> if v >= 0 then v :: acc else acc) acc t.slot_ver
  in
  List.sort Int.compare acc

let fold_versions t f init =
  let acc =
    Array.fold_left (fun acc v -> if v >= 0 then f v acc else acc) init t.slot_ver
  in
  (* lint: hash-order-ok — callers must fold with a commutative [f] (min/max
     over the version set); see the .mli contract. *)
  Hashtbl.fold (fun v _ acc -> f v acc) t.spill acc

(* Move a spill row's touched cells into the (free) slot's row at [off]. *)
let adopt counts off dst src_counts src =
  clear counts off dst;
  for j = 0 to src.len - 1 do
    let peer = src.peers.(j) in
    counts.(off + peer) <- src_counts.(peer);
    push dst peer
  done

let gc_below t v =
  (* Drop spill rows below the floor. Collect-then-remove: removals are
     per-version independent, so staging order is irrelevant, and mutating
     a Hashtbl mid-fold is unspecified. *)
  if Hashtbl.length t.spill > 0 then begin
    let dead =
      (* lint: hash-order-ok — independent removals, commutative collection. *)
      Hashtbl.fold (fun w _ acc -> if w < v then w :: acc else acc) t.spill []
    in
    List.iter
      (fun w ->
        Hashtbl.remove t.spill w;
        release t.tally w)
      dead
  end;
  if v > t.base then begin
    for s = 0 to window - 1 do
      let w = t.slot_ver.(s) in
      if w >= 0 && w < v then begin
        t.slot_ver.(s) <- -1;
        release t.tally w
      end
    done;
    t.base <- v;
    (* Adopt spill rows the advanced window now covers. Distinct in-window
       versions land in distinct slots, so adoption order is irrelevant;
       the version moves from spill to slot, so the tally is unchanged. *)
    if Hashtbl.length t.spill > 0 then begin
      let adopt_rows =
        (* lint: hash-order-ok — per-version independent slot moves. *)
        Hashtbl.fold
          (fun w (row : row) acc -> if in_window t w then (w, row) :: acc else acc)
          t.spill []
      in
      List.iter
        (fun (w, (row : row)) ->
          let s = slot_of w in
          adopt t.req (s * t.nodes) t.req_touched.(s) row.req row.req_touched;
          adopt t.comp (s * t.nodes) t.comp_touched.(s) row.comp row.comp_touched;
          t.slot_ver.(s) <- w;
          Hashtbl.remove t.spill w)
        adopt_rows
    end
  end
