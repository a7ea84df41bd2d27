(* A fixed reference workload that uses only the OCaml standard library,
   so no change to the repository can change its cost. It mixes what the
   simulator spends its time on: short-lived allocation, hashtable traffic
   on string keys, a balanced-tree map, closures and a sort. The benchmark
   times it next to every measured run to track how fast the machine is
   running at that moment. *)

module Int_map = Map.Make (Int)

let work () =
  let n = 50_000 in
  let tbl = Hashtbl.create 1024 in
  for i = 0 to n - 1 do
    Hashtbl.replace tbl (string_of_int (i * 7919 mod 100_003)) i
  done;
  let hits = ref 0 in
  for i = 0 to (2 * n) - 1 do
    match Hashtbl.find_opt tbl (string_of_int (i * 104_729 mod 100_003)) with
    | Some _ -> incr hits
    | None -> ()
  done;
  let map = ref Int_map.empty in
  for i = 0 to n - 1 do
    map := Int_map.add (i * 7919 land 0xffff) (float_of_int i) !map
  done;
  let total = Int_map.fold (fun _ v acc -> acc +. v) !map 0. in
  let sorted =
    List.sort Int.compare (List.init n (fun i -> (i * 48_271) mod 65_537))
  in
  let closures = List.map (fun x -> fun y -> x + y) sorted in
  let sum = List.fold_left (fun acc f -> f acc land 0xffffff) 0 closures in
  Sys.opaque_identity (!hits + int_of_float total + sum)

(* Median wall seconds of [reps] runs of [work], after one untimed run
   that faults in the process's fresh heap pages. *)
let seconds ~reps =
  ignore (work ());
  let times =
    List.init reps (fun _ ->
        let t0 = Clock.now_s () in
        ignore (work ());
        Clock.now_s () -. t0)
    |> List.sort Float.compare
  in
  List.nth times (reps / 2)
