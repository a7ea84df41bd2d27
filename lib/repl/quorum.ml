let met placement ~live =
  let rec groups g =
    g >= Placement.group_count placement
    || List.exists live (Placement.members placement g)
       && groups (g + 1)
  in
  groups 0

let dead_groups placement ~live =
  List.filter
    (fun g -> not (List.exists live (Placement.members placement g)))
    (List.init (Placement.group_count placement) (fun g -> g))

let required placement ~live =
  let n = Placement.nodes placement in
  let req = Array.init n live in
  (* A fully-dead group has no live representative; the poll must then wait
     for one of its members to restart rather than excuse them all, so every
     member stays required. *)
  List.iter
    (fun g -> List.iter (fun m -> req.(m) <- true) (Placement.members placement g))
    (dead_groups placement ~live);
  req

(* Sparse comparison. A payload is [[| peer; count; ... |]] with distinct
   peers and nonzero counts, so two payloads agree over a peer set exactly
   when they hold the same number of pairs inside it and every pair of one
   is found, with its count, in the other. [cell] is an n-wide scatter row,
   all zero between calls. *)

type scratch = {
  cell : int array;
  start : int array;  (** n + 1 bucket bounds of the transposed C pairs *)
  mutable from : int array;  (** bucketed C pairs: executor... *)
  mutable count : int array;  (** ...and its count *)
}

let scratch n =
  {
    cell = Array.make n 0;
    start = Array.make (n + 1) 0;
    from = Array.make 16 0;
    count = Array.make 16 0;
  }

let inside ~considered pl =
  let k = ref 0 in
  for j = 0 to (Array.length pl / 2) - 1 do
    if considered.(pl.(2 * j)) then incr k
  done;
  !k

(* Write the count of every considered peer of [pl] into [cell] when
   [set]; zero those cells back otherwise. *)
let scatter cell ~considered pl ~set =
  for j = 0 to (Array.length pl / 2) - 1 do
    let peer = pl.(2 * j) in
    if considered.(peer) then cell.(peer) <- (if set then pl.((2 * j) + 1) else 0)
  done

(* Every considered pair of [pl] finds its count in [cell]. *)
let found cell ~considered pl =
  let rec go j =
    j >= Array.length pl
    || ((not considered.(pl.(j))) || cell.(pl.(j)) = pl.(j + 1)) && go (j + 2)
  in
  go 0

let same_pairs s ~considered x y =
  inside ~considered x = inside ~considered y
  && begin
       scatter s.cell ~considered x ~set:true;
       let ok = found s.cell ~considered y in
       scatter s.cell ~considered x ~set:false;
       ok
     end

let unchanged s ~considered a b =
  let n = Array.length considered in
  let rec go i =
    i = n
    || ((not considered.(i)) || same_pairs s ~considered a.(i) b.(i))
       && go (i + 1)
  in
  go 0

(* Transpose the considered C pairs into per-sender buckets (a counting
   sort), then match each considered R row against its bucket. Equal
   totals plus every C pair found in R means the pair sets are equal. *)
let settled s ~considered ~r ~c =
  let n = Array.length considered in
  let start = s.start in
  Array.fill start 0 (n + 1) 0;
  let nr = ref 0 and nc = ref 0 in
  for q = 0 to n - 1 do
    if considered.(q) then begin
      nr := !nr + inside ~considered r.(q);
      let pl = c.(q) in
      for j = 0 to (Array.length pl / 2) - 1 do
        let p = pl.(2 * j) in
        if considered.(p) then begin
          start.(p) <- start.(p) + 1;
          incr nc
        end
      done
    end
  done;
  !nr = !nc
  && begin
       (* start.(p) becomes the end of bucket p; placing by pre-decrement
          leaves it at the bucket's beginning, with start.(n) = total. *)
       for p = 1 to n - 1 do
         start.(p) <- start.(p) + start.(p - 1)
       done;
       start.(n) <- !nc;
       if Array.length s.from < !nc then begin
         s.from <- Array.make (2 * !nc) 0;
         s.count <- Array.make (2 * !nc) 0
       end;
       for q = 0 to n - 1 do
         if considered.(q) then begin
           let pl = c.(q) in
           for j = 0 to (Array.length pl / 2) - 1 do
             let p = pl.(2 * j) in
             if considered.(p) then begin
               let k = start.(p) - 1 in
               start.(p) <- k;
               s.from.(k) <- q;
               s.count.(k) <- pl.((2 * j) + 1)
             end
           done
         end
       done;
       let bucket_found p =
         scatter s.cell ~considered r.(p) ~set:true;
         let ok = ref true in
         for k = start.(p) to start.(p + 1) - 1 do
           if s.cell.(s.from.(k)) <> s.count.(k) then ok := false
         done;
         scatter s.cell ~considered r.(p) ~set:false;
         !ok
       in
       let rec rows p =
         p = n || ((not considered.(p)) || bucket_found p) && rows (p + 1)
       in
       rows 0
     end
