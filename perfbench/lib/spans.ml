(* Benchmark-side spans: the benchmark wraps each call it makes into a
   layer's public functions and records name, start, end, the span that
   caused it, the request (transaction id) it served, and the minor and
   promoted words the call allocated. Spans are kept in memory and written
   out when the run ends. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for the root *)
  req : int;  (** transaction id, -1 when the span serves no request *)
  start_ns : int;
  end_ns : int;
  minor_words : float;
  promoted_words : float;
}

type t = { mutable spans : span list; mutable next : int }

let create () = { spans = []; next = 0 }

let with_span t ~name ~parent ?(req = -1) f =
  let id = t.next in
  t.next <- id + 1;
  let minor0, promoted0, _ = Gc.counters () in
  let start_ns = Clock.now_ns () in
  let r = f id in
  let end_ns = Clock.now_ns () in
  let minor1, promoted1, _ = Gc.counters () in
  t.spans <-
    {
      id;
      name;
      parent;
      req;
      start_ns;
      end_ns;
      minor_words = minor1 -. minor0;
      promoted_words = promoted1 -. promoted0;
    }
    :: t.spans;
  r

let spans t = List.rev t.spans

type total = { count : int; ns : int; minor : float; promoted : float }

(* Per-name totals of duration and allocation. *)
let totals t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c =
        match Hashtbl.find_opt tbl s.name with
        | Some c -> c
        | None -> { count = 0; ns = 0; minor = 0.; promoted = 0. }
      in
      Hashtbl.replace tbl s.name
        {
          count = c.count + 1;
          ns = c.ns + (s.end_ns - s.start_ns);
          minor = c.minor +. s.minor_words;
          promoted = c.promoted +. s.promoted_words;
        })
    t.spans;
  fun name ->
    match Hashtbl.find_opt tbl name with
    | Some c -> c
    | None -> { count = 0; ns = 0; minor = 0.; promoted = 0. }

(* Self time of span [id]: its duration minus what its children cover.
   Children of one parent never overlap (the program is single-threaded). *)
let self_ns t id =
  let own = ref 0 and children = ref 0 in
  List.iter
    (fun s ->
      if s.id = id then own := s.end_ns - s.start_ns
      else if s.parent = id then children := !children + (s.end_ns - s.start_ns))
    t.spans;
  !own - !children

let write t path =
  let oc = open_out path in
  output_string oc "id\tparent\tname\treq\tstart_ns\tend_ns\tminor_words\tpromoted_words\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\t%d\t%.0f\t%.0f\n" s.id s.parent
        s.name s.req s.start_ns s.end_ns s.minor_words s.promoted_words)
    (spans t);
  close_out oc
