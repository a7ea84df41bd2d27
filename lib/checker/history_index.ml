module Spec = Txn.Spec
module Result = Txn.Result
module Value = Txn.Value
module Op = Txn.Op

let has_effect (res : Result.t) =
  match res.Result.outcome with
  | Result.Committed -> true
  | Result.Aborted "compensated" -> true
  | Result.Aborted _ -> false

module Keys = Hashtbl.Make (String)

module Ibuf = struct
  type t = { mutable data : int array; mutable len : int }

  let create ?(capacity = 64) () =
    { data = Array.make (max capacity 1) 0; len = 0 }
  let length b = b.len
  let get b i = if i < b.len then b.data.(i) else invalid_arg "Ibuf.get"
  let set b i x = if i < b.len then b.data.(i) <- x else invalid_arg "Ibuf.set"

  let push b x =
    if b.len = Array.length b.data then begin
      (* A typed loop, not [Array.blit]: blitting into a major-heap array
         pays a write barrier per element. *)
      let bigger = Array.make (2 * b.len) 0 in
      for i = 0 to b.len - 1 do
        bigger.(i) <- b.data.(i)
      done;
      b.data <- bigger
    end;
    b.data.(b.len) <- x;
    b.len <- b.len + 1

  let clear b = b.len <- 0

  let iter f b =
    for i = 0 to b.len - 1 do
      f b.data.(i)
    done
end

type t = {
  ids : int array;  (** slot -> txn id, ascending *)
  specs : Spec.t array;
  results : Result.t array;
  writer : bool array;  (** slot is an effect-ful update *)
  order : int array;  (** history position -> slot *)
  keys : int Keys.t;
  names : string array;  (** key id -> key *)
  writers_start : int array;  (** key id -> offset into [writers]; keys + 1 *)
  writers : int array;  (** effect-ful writer slots, grouped by key, ascending *)
  reads_start : int array;  (** slot -> offset into the observations; size + 1 *)
  read_key : int array;
  read_value : Value.t array;
  key_count : int array;  (** per-key counts, reused by [iter_observed] *)
}

let rec iter_ops f (st : Spec.subtxn) =
  List.iter f st.Spec.ops;
  List.iter (iter_ops f) st.Spec.children

let build history =
  let entries = Array.of_list history in
  let n = Array.length entries in
  let id_at p = (fst entries.(p)).Spec.id in
  let by_id = Array.init n Fun.id in
  (* Engines list histories in id order already; sort only when not. *)
  let ascending = ref true in
  for p = 1 to n - 1 do
    if id_at (p - 1) >= id_at p then ascending := false
  done;
  if not !ascending then
    Array.stable_sort (fun a b -> Int.compare (id_at a) (id_at b)) by_id;
  let ids = Array.map id_at by_id in
  for s = 1 to n - 1 do
    if ids.(s - 1) = ids.(s) then
      invalid_arg
        (Printf.sprintf "History_index.build: duplicate transaction id %d"
           ids.(s))
  done;
  let specs = Array.map (fun p -> fst entries.(p)) by_id in
  let results = Array.map (fun p -> snd entries.(p)) by_id in
  let order = Array.make n 0 in
  Array.iteri (fun s p -> order.(p) <- s) by_id;
  let writer =
    Array.init n (fun s ->
        specs.(s).Spec.kind <> Spec.Read_only && has_effect results.(s))
  in
  (* Intern keys; [last_writer] (one entry per key) dedups a writer's keys. *)
  let keys = Keys.create 256 in
  let names = ref [] and last_writer = Ibuf.create () in
  let intern key =
    match Keys.find_opt keys key with
    | Some k -> k
    | None ->
        let k = Keys.length keys in
        Keys.add keys key k;
        names := key :: !names;
        Ibuf.push last_writer (-1);
        k
  in
  let pair_key = Ibuf.create () and pair_slot = Ibuf.create () in
  for s = 0 to n - 1 do
    if writer.(s) then
      iter_ops
        (fun op ->
          if Op.is_write op then begin
            let k = intern (Op.key op) in
            if Ibuf.get last_writer k <> s then begin
              Ibuf.set last_writer k s;
              Ibuf.push pair_key k;
              Ibuf.push pair_slot s
            end
          end)
        specs.(s).Spec.root
  done;
  let reads_of s =
    if Result.committed results.(s) then results.(s).Result.reads else []
  in
  let reads_start = Array.make (n + 1) 0 in
  for s = 0 to n - 1 do
    reads_start.(s + 1) <- reads_start.(s) + List.length (reads_of s)
  done;
  let read_key = Array.make reads_start.(n) 0 in
  let read_value = Array.make reads_start.(n) Value.empty in
  for s = 0 to n - 1 do
    List.iteri
      (fun i (key, value) ->
        read_key.(reads_start.(s) + i) <- intern key;
        read_value.(reads_start.(s) + i) <- value)
      (reads_of s)
  done;
  (* Counting sort of the (key, writer) pairs by key: pairs were pushed in
     slot order, so each key's writers come out slot-ascending. *)
  let nkeys = Keys.length keys in
  let writers_start = Array.make (nkeys + 1) 0 in
  Ibuf.iter (fun k -> writers_start.(k + 1) <- writers_start.(k + 1) + 1) pair_key;
  for k = 0 to nkeys - 1 do
    writers_start.(k + 1) <- writers_start.(k + 1) + writers_start.(k)
  done;
  let fill = Array.sub writers_start 0 nkeys in
  let writers = Array.make (Ibuf.length pair_key) 0 in
  for i = 0 to Ibuf.length pair_key - 1 do
    let k = Ibuf.get pair_key i in
    writers.(fill.(k)) <- Ibuf.get pair_slot i;
    fill.(k) <- fill.(k) + 1
  done;
  {
    ids;
    specs;
    results;
    writer;
    order;
    keys;
    names = Array.of_list (List.rev !names);
    writers_start;
    writers;
    reads_start;
    read_key;
    read_value;
    key_count = Array.make nkeys 0;
  }

let size ix = Array.length ix.ids
let id ix s = ix.ids.(s)
let spec ix s = ix.specs.(s)
let result ix s = ix.results.(s)
let is_writer ix s = ix.writer.(s)
let iter_history ix f = Array.iter f ix.order
let key_name ix k = ix.names.(k)
let key_id ix key = Keys.find ix.keys key

let slot_of_id ix id =
  let rec search lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) / 2 in
      let m = ix.ids.(mid) in
      if m = id then mid else if m < id then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length ix.ids)

let merged_writers ix =
  Array.fold_left
    (fun acc k -> acc + ix.writers_start.(k + 1) - ix.writers_start.(k))
    0 ix.read_key

let iter_writers ix k f =
  for i = ix.writers_start.(k) to ix.writers_start.(k + 1) - 1 do
    f ix.writers.(i)
  done

let writes ix s k =
  let rec search lo hi =
    lo < hi
    &&
    let mid = (lo + hi) / 2 in
    let w = ix.writers.(mid) in
    w = s || if w < s then search (mid + 1) hi else search lo mid
  in
  search ix.writers_start.(k) ix.writers_start.(k + 1)

let iter_reads ix s f =
  for i = ix.reads_start.(s) to ix.reads_start.(s + 1) - 1 do
    f ix.read_key.(i) ix.read_value.(i)
  done

let iter_observed ix s f =
  let lo = ix.reads_start.(s) and hi = ix.reads_start.(s + 1) in
  let count = ix.key_count in
  for i = lo to hi - 1 do
    count.(ix.read_key.(i)) <- 0
  done;
  for i = lo to hi - 1 do
    let k = ix.read_key.(i) in
    count.(k) <- count.(k) + 1
  done;
  for i = lo to hi - 1 do
    let k = ix.read_key.(i) in
    let tags = ix.read_value.(i).Value.writers in
    if count.(k) = 1 then f k tags
    else if count.(k) > 1 then begin
      (* A key read more than once: union its observations, once. *)
      let union = ref tags in
      for j = i + 1 to hi - 1 do
        if ix.read_key.(j) = k then
          union := Value.Writers.union !union ix.read_value.(j).Value.writers
      done;
      count.(k) <- 0;
      f k !union
    end
  done

let merge ix k tags ~hit ~miss ~stray =
  let ws = ix.writers and ids = ix.ids in
  let hi = ix.writers_start.(k + 1) in
  (* Report the writers whose ids fall below [t]: their tags are absent. *)
  let rec absent_below t p =
    if p < hi && ids.(ws.(p)) < t then begin
      miss ws.(p);
      absent_below t (p + 1)
    end
    else p
  in
  let p =
    Value.Writers.fold
      (fun t p ->
        let p = absent_below t p in
        if p < hi && ids.(ws.(p)) = t then begin
          hit ws.(p);
          p + 1
        end
        else begin
          stray t;
          p
        end)
      tags ix.writers_start.(k)
  in
  for i = p to hi - 1 do
    miss ws.(i)
  done
