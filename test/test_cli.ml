(* Regression tests for the `threev_sim run` command line: the fault-spec
   grammars in Harness.Scenario (shared between the cmdliner converters
   and the argv pre-scan that turns a malformed spec into a one-line usage
   message and exit 2) — accept, print-then-parse and reject cases per
   flag, plus the pre-scan itself (both --flag V and --flag=V forms) — and
   the reproducer contract: a scenario's rendered run line parses back,
   through the same term `threev_sim run` uses, to an equal scenario that
   replays the same schedule. *)

module C = Harness.Scenario
module Fuzz = Harness.Fuzz

let checkb = Alcotest.(check bool)
let checks = Alcotest.(check string)

let expect_usage what usage = function
  | Ok _ -> Alcotest.failf "%s: malformed spec accepted" what
  | Error msg ->
      checkb
        (Printf.sprintf "%s error embeds usage" what)
        true
        (String.length msg >= String.length usage
        &&
        let rec find i =
          i + String.length usage <= String.length msg
          && (String.sub msg i (String.length usage) = usage || find (i + 1))
        in
        find 0)

let usage flag = flag ^ " " ^ List.assoc flag C.usages
let rejects flag v = expect_usage flag (usage flag) (C.parse_atom flag v)

(* Print-then-parse: the value rendered for [atom] by the reproducer
   printer parses back to [atom] (0.1 +. 0.2 needs full precision). *)
let reparses atom =
  let flag, v = C.atom_argv atom in
  match C.parse_atom flag v with
  | Ok a when a = atom -> ()
  | _ -> Alcotest.failf "%s %s does not parse back" flag v

(* ------------------------------------------------------ partition *)

let partition_grammar () =
  reparses (C.Partition (2, 0, 0.1 +. 0.2, 0.75));
  reparses (C.Partition_set ([ 4; 5 ], 0.125, 1.5, true));
  (match C.parse_atom "--partition" "0:1:0.2:0.5" with
  | Ok (C.Partition (0, 1, 0.2, 0.5)) -> ()
  | _ -> Alcotest.fail "legacy link form");
  (match C.parse_atom "--partition" "0,1,2@0.1:0.4" with
  | Ok (C.Partition_set ([ 0; 1; 2 ], 0.1, 0.4, false)) -> ()
  | _ -> Alcotest.fail "set form");
  (match C.parse_atom "--partition" "3@0.1:0.4:oneway" with
  | Ok (C.Partition_set ([ 3 ], 0.1, 0.4, true)) -> ()
  | _ -> Alcotest.fail "oneway form");
  rejects "--partition" "bad@x";
  rejects "--partition" "1:2:3";
  rejects "--partition" "0@0.1:0.4:sideways"

(* ---------------------------------------------------------- crash *)

let crash_grammar () =
  reparses (C.Crash (3, 0.1 +. 0.2, 0.9));
  (match C.parse_atom "--crash" "2@0.25:0.7" with
  | Ok (C.Crash (2, 0.25, 0.7)) -> ()
  | _ -> Alcotest.fail "crash form");
  rejects "--crash" "oops";
  rejects "--crash" "2@0.25"

let coord_crash_grammar () =
  reparses (C.Coord_crash (0.25, 1e-3));
  (match C.parse_atom "--coord-crash" "0.3:0.8" with
  | Ok (C.Coord_crash (0.3, 0.8)) -> ()
  | _ -> Alcotest.fail "coord-crash form");
  rejects "--coord-crash" "nah";
  rejects "--coord-crash" "0.3"

let data_crash_grammar () =
  reparses (C.Data_crash (0, 0.5, 0.1 +. 0.9));
  (match C.parse_atom "--data-crash" "1@0.25:0.7" with
  | Ok (C.Data_crash (1, 0.25, 0.7)) -> ()
  | _ -> Alcotest.fail "data-crash form");
  rejects "--data-crash" "bogus";
  rejects "--data-crash" "1@0.25"

let hb_loss_grammar () =
  reparses (C.Hb_loss (1, 0.2, 0.6, 1.));
  reparses (C.Hb_loss (1, 0.2, 0.6, 0.1 +. 0.2));
  (match C.parse_atom "--hb-loss" "3@0.1:0.6" with
  | Ok (C.Hb_loss (3, 0.1, 0.6, 1.)) -> ()
  | _ -> Alcotest.fail "hb-loss default prob");
  (match C.parse_atom "--hb-loss" "3@0.1:0.6:0.5" with
  | Ok (C.Hb_loss (3, 0.1, 0.6, 0.5)) -> ()
  | _ -> Alcotest.fail "hb-loss explicit prob");
  rejects "--hb-loss" "nope";
  rejects "--hb-loss" "3@0.1"

(* ------------------------------------------------------- prescan *)

let prevalidate_catches_first () =
  let argv =
    [| "threev_sim"; "run"; "--crash"; "2@0.25:0.7"; "--partition"; "bad@x" |]
  in
  (match C.prevalidate argv with
  | Some msg -> expect_usage "prescan" (usage "--partition") (Error msg)
  | None -> Alcotest.fail "malformed --partition not caught");
  match C.prevalidate [| "threev_sim"; "run"; "--hb-loss=zap" |] with
  | Some msg -> expect_usage "prescan=" (usage "--hb-loss") (Error msg)
  | None -> Alcotest.fail "malformed --hb-loss=V not caught"

let prevalidate_clean () =
  checkb "all well-formed" true
    (C.prevalidate
       [|
         "threev_sim";
         "run";
         "--crash";
         "2@0.25:0.7";
         "--partition=0,1@0.1:0.4:oneway";
         "--data-crash";
         "1@0.3:0.9";
         "--coord-crash";
         "0.3:0.8";
         "--hb-loss";
         "3@0.1:0.6:0.5";
       |]
    = None);
  (* Unknown flags and non-spec values are cmdliner's business. *)
  checkb "unrelated argv ignored" true
    (C.prevalidate [| "threev_sim"; "run"; "--nodes"; "bananas" |] = None)

let error_is_one_line () =
  match C.parse_atom "--data-crash" "bogus" with
  | Ok _ -> Alcotest.fail "accepted"
  | Error msg ->
      checkb "single line" false (String.contains msg '\n');
      checks "exact message"
        "bad data-crash spec \"bogus\"; usage: --data-crash GROUP@TIME:RESTART"
        msg

(* ---------------------------------------------------- reproducers *)

(* Every strict fuzz case's rendered run line parses back, through the
   `threev_sim run` term itself, to the very scenario the fuzzer ran. *)
let reproducers_round_trip () =
  List.iter
    (fun quick ->
      for fuzz_seed = 1 to 10 do
        for i = 0 to 207 do
          let sc = (Fuzz.case_of_index ~fuzz_seed ~quick i).Fuzz.scenario in
          if C.strict sc.C.engine then
            match Run_cli.parse (C.to_argv sc) with
            | Ok sc' when sc' = sc -> ()
            | Ok _ ->
                Alcotest.failf "seed %d case %d%s: %s parses to another run"
                  fuzz_seed i
                  (if quick then " (quick)" else "")
                  (String.concat " " (C.to_argv sc))
            | Error m ->
                Alcotest.failf "seed %d case %d: %s rejected: %s" fuzz_seed i
                  (String.concat " " (C.to_argv sc))
                  m
        done
      done)
    [ true; false ]

let digest (r : C.run) =
  List.fold_left
    (fun acc ((spec : Txn.Spec.t), res) ->
      acc
      lxor Hashtbl.hash
             ( spec.Txn.Spec.id,
               Txn.Result.committed res,
               res.Txn.Result.submit_time,
               Txn.Result.latency res ))
    0 r.C.outcome.Harness.Runner.history

(* A heartbeat-loss storm plus a one-way partition: the fuzzer once built
   this plan heartbeat rules first while `threev_sim run` put partition
   rules first, so the printed reproducer ran another schedule (24367
   simulator events instead of the fuzz run's 24369). *)
let storm_partition_reproducer () =
  let case = Fuzz.case_of_index ~fuzz_seed:14 ~quick:false 38 in
  let sc = case.Fuzz.scenario in
  checkb "storm + partition shape" true
    (List.map (function C.Hb_loss _ -> 0 | C.Partition_set _ -> 1 | _ -> 2)
       sc.C.atoms
    = [ 0; 1 ]);
  match Run_cli.parse (C.to_argv sc) with
  | Error m -> Alcotest.fail m
  | Ok parsed ->
      let fuzz = C.run sc and cli = C.run parsed in
      let events (r : C.run) = Simul.Sim.events_executed r.C.sim in
      Alcotest.(check int) "fuzz-order schedule" 24369 (events fuzz);
      Alcotest.(check int) "same events" (events fuzz) (events cli);
      Alcotest.(check int) "same history digest" (digest fuzz) (digest cli);
      Alcotest.(check int) "fuzz sweep ran the same history"
        (Fuzz.run_case ~fuzz_seed:14 ~quick:false case).Fuzz.committed
        cli.C.outcome.Harness.Runner.committed

let () =
  Alcotest.run "cli_specs"
    [
      ( "grammar",
        [
          Alcotest.test_case "partition" `Quick partition_grammar;
          Alcotest.test_case "crash" `Quick crash_grammar;
          Alcotest.test_case "coord-crash" `Quick coord_crash_grammar;
          Alcotest.test_case "data-crash" `Quick data_crash_grammar;
          Alcotest.test_case "hb-loss" `Quick hb_loss_grammar;
        ] );
      ( "prescan",
        [
          Alcotest.test_case "catches malformed" `Quick
            prevalidate_catches_first;
          Alcotest.test_case "clean argv passes" `Quick prevalidate_clean;
          Alcotest.test_case "one-line message" `Quick error_is_one_line;
        ] );
      ( "reproducer",
        [
          Alcotest.test_case "fuzz run lines round-trip" `Quick
            reproducers_round_trip;
          Alcotest.test_case "storm + partition replays the fuzz schedule"
            `Quick storm_partition_reproducer;
        ] );
    ]
