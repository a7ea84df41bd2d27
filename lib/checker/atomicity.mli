(** Atomic-visibility checker — the correctness oracle for every engine.

    The paper's inter-node version consistency (Definition 3.2) demands that
    no query observe a partially executed update transaction. Because every
    write tags the value with its transaction id ({!Txn.Value.t}[.writers]),
    this is checkable offline: for each committed read-only transaction [r]
    and each effect-ful update transaction [u] whose written keys overlap
    the keys [r] read in at least two places, [r] must have observed [u] on
    {e all} of those keys or on {e none} of them.

    The checker also counts {e dirty reads}: observations of transactions
    that aborted without effect (a correctly functioning engine never
    produces any, since 3V buffers NC writes and 2PC buffers everything). *)

type report = {
  reads_checked : int;  (** committed read-only transactions examined *)
  pairs_checked : int;  (** (read, update) pairs with ≥ 2 overlapping keys *)
  partial_reads : int;  (** atomic-visibility violations *)
  dirty_reads : int;  (** observations of effect-less aborted transactions *)
  examples : (int * int) list;
      (** up to 10 offending (read txn id, update txn id) pairs *)
}

(** [check history] examines every (spec, result) pair of a finished run.
    Results that are still pending must not be included. Cost per read:
    O(tags observed + writers of the read keys), over the shared dense
    history index.
    @raise Invalid_argument if two entries share a transaction id. *)
val check : (Txn.Spec.t * Txn.Result.t) list -> report

(** True when the report shows no violation of either kind. *)
val clean : report -> bool

(** One-line summary: pairs checked, partial reads, dirty reads. *)
val pp : Format.formatter -> report -> unit
