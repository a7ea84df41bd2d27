(** Read staleness measurement.

    Versioned schemes trade read freshness for coordination avoidance; this
    module quantifies the trade. For each committed read-only transaction
    [r], an update [u] is {e applicable} when it settled
    ([complete_time ≤ r.submit_time]) and wrote at least one key [r] read;
    it is {e missed} when [r] observed it on none of those keys. We report
    the average number of missed updates per read and the age of the oldest
    miss — "how far behind" queries run, the quantity the paper's §7 says
    the user controls by choosing when to advance versions. *)

type report = {
  reads : int;  (** committed read-only transactions measured *)
  reads_with_misses : int;
  missed_total : int;
  mean_missed : float;  (** missed updates per read *)
  mean_lag : float;  (** mean age (s) of the oldest miss, over reads with misses *)
  max_lag : float;  (** worst-case age of a missed update *)
}

(** [measure history] computes the staleness report of a finished run.
    @raise Invalid_argument if two entries share a transaction id. *)
val measure : (Txn.Spec.t * Txn.Result.t) list -> report

(** One-line summary: reads, mean missed, mean/max lag. *)
val pp : Format.formatter -> report -> unit
