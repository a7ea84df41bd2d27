(** Quorum rules for group-aware counter polling.

    Version advancement tolerates up to [k-1] crashed replicas per group: a
    counter poll completes once every {e required} node replied, where a
    node is required iff it is live or its whole group is down (a fully-dead
    group blocks advancement — excusing it would declare versions consistent
    that no surviving replica can vouch for). Counter-matrix agreement is
    likewise restricted to pairs of considered nodes: an R bump at a live
    sender whose mirrored update is still in flight to a crashed replica is
    excused, because the reliable channel retransmits the mirror until the
    replica restarts and the readable-after-recovery rule keeps that replica
    from serving reads before its counters balance again. *)

(** [met placement ~live] holds when every group has ≥ 1 live member. *)
val met : Placement.t -> live:(int -> bool) -> bool

(** Groups with zero live members, ascending. *)
val dead_groups : Placement.t -> live:(int -> bool) -> int list

(** [required placement ~live] is the per-node poll-participation vector:
    [req.(i)] iff node [i]'s reply must be awaited (live, or member of a
    fully-dead group). *)
val required : Placement.t -> live:(int -> bool) -> bool array

(** {1 Counter agreement}

    A poll reply carries node [i]'s R row and C column for one version as
    sparse pairs [[| peer; count; ... |]] (distinct peers, nonzero counts:
    the [Counters.snapshot_r] format). [r.(p)] is [p]'s R row ([R pq] at
    peer [q]) and [c.(q)] is [q]'s C column ([C pq] at peer [p]); a
    missing pair reads as 0. Both comparisons look only at pairs of
    considered nodes, so payloads of unconsidered nodes may be stale or
    arbitrary. They cost O(considered pairs + n) and allocate nothing once
    the scratch has grown to the largest pair count seen. *)

(** Reusable working space for {!settled} and {!unchanged} over [n]
    nodes. *)
type scratch

(** [scratch n] is working space for comparisons over [n] nodes. *)
val scratch : int -> scratch

(** [settled s ~considered ~r ~c] holds when [R pq = C pq] for every pair
    with [considered.(p) && considered.(q)]: every request one considered
    node sent another has completed there. *)
val settled :
  scratch -> considered:bool array -> r:int array array -> c:int array array -> bool

(** [unchanged s ~considered a b] holds when, for every considered [i],
    payloads [a.(i)] and [b.(i)] give the same count at every considered
    peer — two poll rounds saw the same rows (or the same columns). *)
val unchanged :
  scratch -> considered:bool array -> int array array -> int array array -> bool
