(** Per-node request/completion counter tables (paper §2.2, §4).

    A node [p] keeps, for every active version [v]:

    - [R(v)pq] — requests: subtransactions (on version [v]) that node [p]
      sent to node [q]; located at the {e sender} [p];
    - [C(v)op] — completions: subtransactions (on version [v]) submitted
      from node [o] that {e terminated} at node [p]; located at the
      {e executor} [p].

    All transactions against version [v] have terminated exactly when
    [R(v)pq = C(v)pq] for all pairs — with [R(v)pq] read at [p] and
    [C(v)pq] read at [q]. Counters are monotone, which is what makes the
    coordinator's asynchronous polling sound.

    All operations are plain (non-suspending) OCaml: the paper's only
    concurrency assumption for counters is that individual reads and writes
    are atomic, which single-threaded simulation gives for free.

    Representation: the engine's GC keeps at most 3 consecutive versions
    live (§4), so rows for versions inside a {!window}-wide sliding window
    starting at the GC floor live in dense flat int arrays indexed by
    [(version mod window) * nodes + peer] — an incr is a tag compare plus
    one array store. Versions outside the window (late completions for
    GC'd versions, or versions opened ahead of the floor) spill to a
    hashtable with boxed rows; {!gc_below} advances the window and adopts
    spill rows it newly covers. Each row also lists, per side, the peers
    whose count is nonzero in first-touch order, so snapshots and slot
    reuse cost O(touched peers) rather than O(nodes). Observable behaviour
    is identical to a plain per-version hash table (see
    test/test_counters_equiv.ml). *)

type t

(** Width of the dense version window (a power of two): 3 live versions
    plus one slot of slack for the version opened before the GC floor
    advances. *)
val window : int

(** A population count of the versions held by a set of tables: for each
    version, how many of the tables allocated it (in a window slot or a
    spill row). The engine shares one per shard so its ≤ 3-version check
    is O(1) while the bound holds. *)
type tally

(** An empty tally. *)
val tally : unit -> tally

(** Distinct versions currently held by the tables counted in the tally. *)
val distinct_versions : tally -> int

(** [create ~nodes] is a counter table for a node in an [nodes]-node system,
    with no versions allocated yet, counted in a tally of its own. *)
val create : nodes:int -> t

(** [create_in tally ~nodes] is {!create}, counted in [tally]. *)
val create_in : tally -> nodes:int -> t

(** [ensure_version t v] allocates zeroed R/C rows for version [v] if absent
    (paper §4.1 step 2 / §4.3 phase 1). *)
val ensure_version : t -> int -> unit

(** [incr_r t ~version ~dst] bumps [R(version) self→dst]. Allocates the
    version if needed. *)
val incr_r : t -> version:int -> dst:int -> unit

(** [incr_c t ~version ~src] bumps [C(version) src→self]. *)
val incr_c : t -> version:int -> src:int -> unit

(** [r t ~version ~dst] reads [R(version) self→dst]; 0 when the version
    was never allocated. *)
val r : t -> version:int -> dst:int -> int

(** [c t ~version ~src] reads [C(version) src→self]; 0 when the version
    was never allocated. *)
val c : t -> version:int -> src:int -> int

(** [snapshot_r t ~version] is the R row for this node as sparse pairs
    [[| q0; n0; q1; n1; ... |]]: [ni = R(version) self→qi > 0], one pair
    per peer with a nonzero count, peers distinct, in the order their
    counts first became nonzero. Zero counts are omitted; a version never
    allocated gives [[||]]. The array is fresh (the live row keeps
    mutating) and holds [2k] words for [k] nonzero peers, whatever the
    width of the table. *)
val snapshot_r : t -> version:int -> int array

(** [snapshot_c t ~version] is the C column for this node as sparse pairs
    [[| o0; n0; ... |]] with [ni = C(version) oi→self > 0]. Same contract
    as {!snapshot_r}. *)
val snapshot_c : t -> version:int -> int array

(** Versions currently allocated, ascending ([Int.compare]). Allocates and
    sorts; prefer {!fold_versions} on hot paths. *)
val versions : t -> int list

(** [fold_versions t f init] folds [f] over the allocated versions in
    {e unspecified order}, without sorting or building a list. Determinism
    contract: [f] must be commutative over the version set (min, max, sum,
    set accumulation) — anything order-sensitive must use {!versions}
    instead. *)
val fold_versions : t -> (int -> 'a -> 'a) -> 'a -> 'a

(** [gc_below t v] drops counter storage for all versions < [v]
    (§4.3 phase 4). *)
val gc_below : t -> int -> unit
