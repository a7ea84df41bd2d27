module Spec = Txn.Spec
module Result = Txn.Result

type violation = {
  read_txn : int;
  key : string;
  version : int;
  missing : int list;
  leaked_future : int list;
  unknown : int list;
}

type report = {
  reads_checked : int;
  observations : int;
  violations : violation list;
  violation_count : int;
}

module Ix = History_index

(* Per-shard fencing for sharded histories: a cross-shard read carries one
   read version per shard (its assigned vector), so key [k] must be fenced
   by the component of the shard {e hosting} [k] — the root's version is
   only that one component. The hosting shard is read off the spec tree:
   the subtransactions whose ops read [k] name the nodes involved, and
   [shard_of_node] maps those to components. Writers of [k] all live in
   [k]'s shard (sharded engines reject cross-shard update trees), so the
   per-component comparison stays exact. *)
let fence_of ~vector ~shard_of_node (spec : Spec.t) ~default key =
  match vector spec.Spec.id with
  | None -> default
  | Some vec ->
      let fence = ref (-1) in
      let rec scan (st : Spec.subtxn) =
        if
          List.exists
            (function Txn.Op.Read k -> k = key | _ -> false)
            st.Spec.ops
        then begin
          let s = shard_of_node st.Spec.node in
          if s >= 0 && s < Array.length vec && vec.(s) > !fence then
            fence := vec.(s)
        end;
        List.iter scan st.Spec.children
      in
      scan spec.Spec.root;
      if !fence < 0 then default else !fence

let check ?(vector = fun _ -> None) ?(shard_of_node = fun _ -> 0) history =
  let ix = Ix.build history in
  let version = Array.init (Ix.size ix) (fun u -> (Ix.result ix u).Result.version) in
  let reads_checked = ref 0 in
  let observations = ref 0 in
  let violations = ref [] in
  let violation_count = ref 0 in
  Ix.iter_history ix (fun r ->
      let spec = Ix.spec ix r and res = Ix.result ix r in
      if spec.Spec.kind = Spec.Read_only && Result.committed res then begin
        incr reads_checked;
        let root_v = res.Result.version in
        let found = ref [] in
        (* Observed writers unioned per key (a key may be read at several
           subtransactions; under 3V they all resolve the same version),
           walked against the key's effect-ful writers: those of version
           <= v are expected, the rest must stay unseen. *)
        Ix.iter_observed ix r (fun k seen ->
            incr observations;
            let key = Ix.key_name ix k in
            let v = fence_of ~vector ~shard_of_node spec ~default:root_v key in
            let exact = ref true in
            Ix.merge ix k seen
              ~hit:(fun u -> if version.(u) > v then exact := false)
              ~miss:(fun u -> if version.(u) <= v then exact := false)
              ~stray:(fun _ -> exact := false);
            if not !exact then begin
              (* Anything seen that is not expected is either a known
                 higher-version writer that leaked forward into this read,
                 or a writer tag the history cannot account for at all
                 (e.g. a dirty read from an effect-less abort). The two
                 point at very different bugs, so report them
                 separately. *)
              let missing = ref [] and leaked = ref [] and unknown = ref [] in
              Ix.merge ix k seen
                ~hit:(fun u ->
                  if version.(u) > v then leaked := Ix.id ix u :: !leaked)
                ~miss:(fun u ->
                  if version.(u) <= v then missing := Ix.id ix u :: !missing)
                ~stray:(fun t -> unknown := t :: !unknown);
              found :=
                {
                  read_txn = spec.Spec.id;
                  key;
                  version = v;
                  missing = List.rev !missing;
                  leaked_future = List.rev !leaked;
                  unknown = List.rev !unknown;
                }
                :: !found
            end);
        (* Sorted key order: violations are capped at 20 and escape into
           the report, so which ones survive must not depend on read
           order. *)
        List.sort (fun a b -> String.compare a.key b.key) !found
        |> List.iter (fun viol ->
               incr violation_count;
               if List.length !violations < 20 then
                 violations := viol :: !violations)
      end);
  {
    reads_checked = !reads_checked;
    observations = !observations;
    violations = List.rev !violations;
    violation_count = !violation_count;
  }

let clean r = r.violation_count = 0

let pp ppf r =
  Format.fprintf ppf "reads=%d observations=%d violations=%d%s" r.reads_checked
    r.observations r.violation_count
    (if clean r then " (exact)" else " (VIOLATIONS)");
  List.iteri
    (fun i v ->
      if i < 3 then
        Format.fprintf ppf
          "@ [txn %d key %s v%d missing={%s} leaked-future={%s} unknown={%s}]"
          v.read_txn v.key v.version
          (String.concat "," (List.map string_of_int v.missing))
          (String.concat "," (List.map string_of_int v.leaked_future))
          (String.concat "," (List.map string_of_int v.unknown)))
    r.violations
