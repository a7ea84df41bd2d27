(* One benchmark process. perfbench/run.py starts a fresh one per
   measurement and reads the JSON object it prints as its last line.

     main.exe run    --workload W --seed N [--trace] [--spans FILE]
     main.exe setup  --workload W --seed N --rounds R
     main.exe replay --workload W --seed N --inflight X --subtxns Y --dual-frac Z
     main.exe calib  --reps R

   [run] drives the workload once, runs the correctness gate and prints
   every raw figure; with [--trace] it also records benchmark-side spans.
   [setup] times the set-up in [R] rounds, each beside a run of the
   reference workload. [replay] runs the layer replays at the given run
   shape. [calib] times the fixed reference workload.
   Exit code 1 when a run fails the gate. *)

open Perfbench_core

let usage () =
  prerr_endline
    "usage: main.exe (run|setup|replay|calib) [--workload W --seed N] [options]";
  exit 2

let () =
  Measure.gc_settings ();
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let rec opts acc = function
    | "--trace" :: r -> opts (("--trace", "") :: acc) r
    | k :: v :: r when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((k, v) :: acc) r
    | [] -> acc
    | _ -> usage ()
  in
  let opts = opts [] rest in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let num k = try float_of_string (get k) with Failure _ -> usage () in
  let int k = try int_of_string (get k) with Failure _ -> usage () in
  let workload () =
    match Workloads.find (get "--workload") with
    | Some w -> w
    | None ->
        prerr_endline ("main.exe: unknown workload " ^ get "--workload");
        exit 2
  in
  let print fields = print_endline (Measure.json_of_fields fields) in
  match mode with
  | "run" ->
      let r =
        Measure.run (workload ()) ~seed:(int "--seed")
          ~traced:(List.mem_assoc "--trace" opts)
          ~spans_path:(List.assoc_opt "--spans" opts)
      in
      let ok = r.Measure.failures = [] in
      List.iter (fun f -> prerr_endline ("gate: FAILED: " ^ f)) r.Measure.failures;
      print
        (r.Measure.fields
        @ [
            ("gate_ok", Measure.Int (if ok then 1 else 0));
            ("failures", Measure.Str (String.concat "; " r.Measure.failures));
          ]);
      exit (if ok then 0 else 1)
  | "setup" ->
      (* One build takes 0.6-50 ms, too short to time against the machine's
         jitter on its own. Each round times one run of the reference
         workload, then builds the workload until the builds add up to at
         least as long. A round reports the mean build time and the
         reference time, taken within the same fraction of a second. *)
      let w = workload () and seed = int "--seed" in
      let time f =
        let t0 = Clock.now_s () in
        ignore (Sys.opaque_identity (f ()));
        Clock.now_s () -. t0
      in
      let build () =
        (* A full major collection before each build, outside the timed
           region, so every build starts from the same heap. *)
        Gc.full_major ();
        time (fun () -> Workloads.build w ~seed)
      in
      ignore (build ());
      ignore (Calibrate.work ());
      List.init (int "--rounds") (fun i ->
          let reference = time Calibrate.work in
          let rec builds n total =
            if n > 0 && total >= reference then total /. float_of_int n
            else builds (n + 1) (total +. build ())
          in
          let b = builds 0 0. in
          [
            (Printf.sprintf "build_%d" i, Measure.Float b);
            (Printf.sprintf "reference_%d" i, Measure.Float reference);
          ])
      |> List.concat |> print
  | "replay" ->
      print
        (Measure.replays (workload ()) ~seed:(int "--seed")
           ~inflight:(num "--inflight") ~subtxns:(num "--subtxns")
           ~dual_frac:(num "--dual-frac"))
  | "calib" ->
      print [ ("calib_s", Measure.Float (Calibrate.seconds ~reps:(int "--reps"))) ]
  | _ -> usage ()
