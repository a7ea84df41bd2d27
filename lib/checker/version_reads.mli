(** Exact version-read checker — Theorem 4.1 made executable.

    The 3V serialization order places transactions by version number, with
    updates of a version preceding the reads of that version. Because
    commuting updates accumulate (a write of version w updates every copy
    with version ≥ w), the value a read transaction of version [v] observes
    for key [k] must carry {e exactly} the writer set

    {[ { u | u is an effect-ful update, version(u) <= v, u wrote k } ]}

    — no update of version ≤ v may be missing (phase 3 only switches reads
    to a version whose updates have all terminated) and no update of
    version > v may have leaked in (reads never see the current update
    version). This is strictly stronger than atomic visibility: it pins
    down {e which} serial prefix every read observed.

    Only meaningful for the 3V engine (baselines don't stamp versions the
    same way). Requires the history to be complete (every submitted
    transaction resolved). *)

type violation = {
  read_txn : int;
  key : string;
  version : int;  (** the read transaction's version *)
  missing : int list;  (** writers ≤ version not observed *)
  leaked_future : int list;
      (** observed writers known to have committed at a version > v — the
          read saw past its version fence *)
  unknown : int list;
      (** observed writer tags no effect-ful update in the history accounts
          for — e.g. a dirty read of an aborted transaction's write *)
}

type report = {
  reads_checked : int;
  observations : int;  (** (read, key) pairs compared *)
  violations : violation list;  (** capped at 20 *)
  violation_count : int;
}

(** [check ?vector ?shard_of_node history] compares every committed
    read's observations against the exact writer sets Theorem 4.1
    predicts. For sharded histories pass [vector] (txn id → the read
    vector assigned at submission, e.g. {!Threev.Engine.assigned_vector})
    and [shard_of_node]: each key is then fenced by the component of the
    shard hosting it (found via the spec tree) instead of the root's
    version — versions from different shards are incomparable. The
    defaults ([vector] constantly [None]) reproduce the single-frontier
    check exactly.
    @raise Invalid_argument if two entries share a transaction id. *)
val check :
  ?vector:(int -> int array option) ->
  ?shard_of_node:(int -> int) ->
  (Txn.Spec.t * Txn.Result.t) list ->
  report

(** True when no violation was found. *)
val clean : report -> bool

(** Summary line plus one line per (capped) violation. *)
val pp : Format.formatter -> report -> unit
