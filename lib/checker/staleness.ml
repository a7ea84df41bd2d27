module Spec = Txn.Spec
module Result = Txn.Result

type report = {
  reads : int;
  reads_with_misses : int;
  missed_total : int;
  mean_missed : float;
  mean_lag : float;
  max_lag : float;
}

module Ix = History_index
module Ibuf = History_index.Ibuf

let measure history =
  let ix = Ix.build history in
  let n = Ix.size ix in
  (* [seen.(u) = r]: read [r] observed [u]'s tag on some key;
     [judged.(u) = r]: candidate [u] was already weighed for [r]. *)
  let seen = Array.make n (-1) and judged = Array.make n (-1) in
  (* Settlement time of each committed update; nan, which compares false
     against every submit time, for everything else. *)
  let settled =
    Array.init n (fun u ->
        let res = Ix.result ix u in
        if Ix.is_writer ix u && Result.committed res then
          res.Result.complete_time
        else Float.nan)
  in
  let keys = Ibuf.create () in
  let reads = ref 0 in
  let reads_with_misses = ref 0 in
  let missed_total = ref 0 in
  let lag_sum = ref 0. in
  let max_lag = ref 0. in
  Ix.iter_history ix (fun r ->
      let spec = Ix.spec ix r and res = Ix.result ix r in
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads;
        Ibuf.clear keys;
        Ix.iter_observed ix r (fun k tags ->
            Ibuf.push keys k;
            Ix.merge ix k tags
              ~hit:(fun u -> seen.(u) <- r)
              ~miss:ignore
              ~stray:(fun t ->
                let s = Ix.slot_of_id ix t in
                if s >= 0 then seen.(s) <- r));
        (* Candidates: committed updates writing any key this read looked
           at, settled before it was submitted. *)
        let oldest_miss = ref infinity in
        let misses = ref 0 in
        Ibuf.iter
          (fun k ->
            Ix.iter_writers ix k (fun u ->
                if judged.(u) <> r then begin
                  judged.(u) <- r;
                  if settled.(u) <= res.Result.submit_time && seen.(u) <> r
                  then begin
                    incr misses;
                    oldest_miss := Float.min !oldest_miss settled.(u)
                  end
                end))
          keys;
        if !misses > 0 then begin
          incr reads_with_misses;
          missed_total := !missed_total + !misses;
          let lag = res.Result.submit_time -. !oldest_miss in
          lag_sum := !lag_sum +. lag;
          if lag > !max_lag then max_lag := lag
        end
      end);
  {
    reads = !reads;
    reads_with_misses = !reads_with_misses;
    missed_total = !missed_total;
    mean_missed =
      (if !reads = 0 then 0. else float_of_int !missed_total /. float_of_int !reads);
    mean_lag =
      (if !reads_with_misses = 0 then 0.
       else !lag_sum /. float_of_int !reads_with_misses);
    max_lag = !max_lag;
  }

let pp ppf r =
  Format.fprintf ppf "reads=%d missed/read=%.2f mean_lag=%.4fs max_lag=%.4fs"
    r.reads r.mean_missed r.mean_lag r.max_lag
