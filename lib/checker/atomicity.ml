module Spec = Txn.Spec
module Result = Txn.Result

type report = {
  reads_checked : int;
  pairs_checked : int;
  partial_reads : int;
  dirty_reads : int;
  examples : (int * int) list;
}

module Ix = History_index
module Ibuf = History_index.Ibuf

let check history =
  let ix = Ix.build history in
  let n = Ix.size ix in
  (* Updates that aborted without effect: observing one is a dirty read. *)
  let effectless s =
    (not (Ix.is_writer ix s)) && (Ix.spec ix s).Spec.kind <> Spec.Read_only
  in
  (* Per candidate update [u] of the current read [r]: [overlap.(u)] counts
     the distinct keys both touched, [seen.(u)] those on which [r]
     observed [u]. [stamp.(u) = r] marks them as current. *)
  let stamp = Array.make n (-1) in
  let overlap = Array.make n 0 and seen = Array.make n 0 in
  let candidates = Ibuf.create () in
  let reads_checked = ref 0 in
  let pairs_checked = ref 0 in
  let partial_reads = ref 0 in
  let dirty_reads = ref 0 in
  let examples = ref [] in
  let note_example r u =
    if List.length !examples < 10 then examples := (r, u) :: !examples
  in
  Ix.iter_history ix (fun r ->
      let spec = Ix.spec ix r in
      if spec.Spec.kind = Spec.Read_only && Result.committed (Ix.result ix r)
      then begin
        incr reads_checked;
        Ibuf.clear candidates;
        let dirty = ref [] in
        (* Writer tags this read observed, unioned per key. *)
        Ix.iter_observed ix r (fun k tags ->
            Ix.iter_writers ix k (fun u ->
                if stamp.(u) <> r then begin
                  stamp.(u) <- r;
                  overlap.(u) <- 0;
                  seen.(u) <- 0;
                  Ibuf.push candidates u
                end;
                overlap.(u) <- overlap.(u) + 1);
            Ix.merge ix k tags
              ~hit:(fun u -> seen.(u) <- seen.(u) + 1)
              ~miss:ignore
              ~stray:(fun t ->
                let s = Ix.slot_of_id ix t in
                if s >= 0 && effectless s then
                  dirty := (Ix.key_name ix k, t) :: !dirty));
        (* Dirty reads, in key then tag order. *)
        List.sort
          (fun (k1, t1) (k2, t2) ->
            match String.compare k1 k2 with 0 -> Int.compare t1 t2 | c -> c)
          !dirty
        |> List.iter (fun (_, t) ->
               incr dirty_reads;
               note_example spec.Spec.id t);
        (* Partial observations, in update id (= slot) order. *)
        let partial = ref [] in
        Ibuf.iter
          (fun u ->
            if overlap.(u) >= 2 then begin
              incr pairs_checked;
              if seen.(u) > 0 && seen.(u) < overlap.(u) then
                partial := u :: !partial
            end)
          candidates;
        List.sort Int.compare !partial
        |> List.iter (fun u ->
               incr partial_reads;
               note_example spec.Spec.id (Ix.id ix u))
      end);
  {
    reads_checked = !reads_checked;
    pairs_checked = !pairs_checked;
    partial_reads = !partial_reads;
    dirty_reads = !dirty_reads;
    examples = List.rev !examples;
  }

let clean r = r.partial_reads = 0 && r.dirty_reads = 0

let pp ppf r =
  Format.fprintf ppf
    "reads=%d pairs=%d partial=%d dirty=%d%s" r.reads_checked r.pairs_checked
    r.partial_reads r.dirty_reads
    (if clean r then " (clean)" else " (VIOLATIONS)")
