(** Outcome of a transaction as observed by its submitter. *)

type outcome =
  | Committed
  | Aborted of string  (** reason, e.g. "deadlock", "version-overtaken" *)

type t = {
  txn_id : int;
  outcome : outcome;
  version : int;
      (** version the transaction executed against (engine-specific meaning
          for baselines; -1 when not applicable) *)
  served_by : int;
      (** node that executed the root subtransaction — under replication the
          serving replica the router chose, which checkers use to resolve
          reads-from through the replica that actually answered; equals the
          spec's root node for unreplicated engines (-1 when unknown) *)
  reads : (string * Value.t) list;
      (** key, value-as-seen — in subtransaction execution order; the
          [writers] inside each value feed the atomic-visibility checker *)
  submit_time : float;
  root_commit_time : float;
      (** when the root subtransaction's local work committed — in 3V this is
          all an update transaction's submitter ever waits for *)
  complete_time : float;
      (** when the whole transaction tree settled (all subtransactions
          terminated, or the 2PC decision applied) *)
}

(** Settlement latency: [complete_time - submit_time]. *)
val latency : t -> float

(** User-blocking latency: [root_commit_time - submit_time]. *)
val blocking_latency : t -> float

(** [committed r] is true iff the outcome is [Committed]. *)
val committed : t -> bool

(** One-line result summary: txn id, outcome, version, timings. *)
val pp : Format.formatter -> t -> unit
