(* Layer replays: each times one layer's public functions on their own, on
   inputs shaped like the workload (node count, queue depth, key set, poll
   width). They estimate the self time of layers the benchmark cannot span
   from outside during a run: the kernel, the network and the store are
   only reached through the engine's internals. Every replay is
   deterministic in its inputs; only its wall time varies. *)

module Sim = Simul.Sim
module Ivar = Simul.Ivar
module Network = Netsim.Network
module Reliable = Netsim.Reliable
module Mvstore = Store.Mvstore
module Value = Txn.Value
module Counters = Threev.Counters

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, float_of_int (Clock.now_ns () - t0))

(* Spawn/sleep/ivar loop: [depth] fibers each sleeping an exponential
   2 ms, then waiting on an ivar filled by a plain scheduled callback —
   the shape of a subtransaction awaiting a reply. ns per kernel event. *)
let simul_event_ns ~seed ~depth ~events =
  let rng = Random.State.make [| seed; 1 |] in
  let sim = Sim.create ~seed ~queue_capacity:(2 * depth) () in
  let rounds = max 1 (events / (2 * depth)) in
  for _ = 1 to depth do
    Sim.spawn sim ~namef:(fun () -> "replay-fiber") (fun () ->
        for _ = 1 to rounds do
          Sim.sleep sim (-.log (1. -. Random.State.float rng 1.) *. 0.002);
          let iv = Ivar.create () in
          Sim.schedule sim ~delay:0.0001 (fun () -> Ivar.fill iv ());
          Ivar.read sim iv
        done)
  done;
  let _, ns = timed (fun () -> ignore (Sim.run sim ())) in
  ns /. float_of_int (Sim.events_executed sim)

(* [msgs] sends between random distinct nodes of an [nodes]-node network
   with exponential 2 ms links, paced so about [depth] are in flight, each
   received by its node's server fiber. ns per send+receive. *)
let drive_messages ~seed ~nodes ~depth ~msgs ~send ~recv sim =
  let rng = Random.State.make [| seed; 2 |] in
  let received = ref 0 in
  for node = 0 to nodes - 1 do
    Sim.spawn sim ~daemon:true ~namef:(fun () -> "replay-server") (fun () ->
        while true do
          ignore (recv ~node);
          incr received
        done)
  done;
  Sim.spawn sim ~namef:(fun () -> "replay-client") (fun () ->
      for i = 1 to msgs do
        let src = Random.State.int rng nodes in
        let dst = (src + 1 + Random.State.int rng (nodes - 1)) mod nodes in
        send ~src ~dst i;
        if i mod depth = 0 then Sim.sleep sim 0.002
      done);
  let _, ns = timed (fun () -> ignore (Sim.run sim ())) in
  if !received <> msgs then
    failwith
      (Printf.sprintf "net replay: %d of %d messages received" !received msgs);
  ns /. float_of_int msgs

let net_send_recv_ns ~seed ~nodes ~depth ~msgs =
  let sim = Sim.create ~seed () in
  let net =
    Network.create sim ~size:nodes ~latency:(Netsim.Latency.Exponential 0.002) ()
  in
  drive_messages ~seed ~nodes ~depth ~msgs sim
    ~send:(fun ~src ~dst m -> Network.send net ~src ~dst m)
    ~recv:(fun ~node -> Network.recv net ~node)

let reliable_send_recv_ns ~seed ~nodes ~depth ~msgs =
  let sim = Sim.create ~seed () in
  let net =
    Network.create sim ~size:nodes ~latency:(Netsim.Latency.Exponential 0.002) ()
  in
  let ch =
    Reliable.create
      ~config:{ Reliable.default_config with Reliable.acks = true; timeout = 0.02 }
      net
  in
  drive_messages ~seed ~nodes ~depth ~msgs sim
    ~send:(fun ~src ~dst m -> Reliable.send ch ~src ~dst m)
    ~recv:(fun ~node -> Reliable.recv ch ~node)

(* One node's store over the workload's key set, Zipf 0.5 popularity. The
   update version advances every [ops / 16] writes with garbage collection
   behind it, and one write in [straggle] lands one version late (a dual
   write), so copies, dual writes and GC all occur in their usual mix. *)
let store_ns ~seed ~keys ~ops ~straggle =
  let rng = Random.State.make [| seed; 3 |] in
  let zipf = Workload.Zipf.create ~n:keys ~s:0.5 in
  let names = Array.init keys (fun i -> Printf.sprintf "k%d@n0" i) in
  let store = Mvstore.create () in
  let per_version = max 1 (ops / 16) in
  let version i = 2 + (i / per_version) in
  let draws =
    Array.init ops (fun i ->
        let late = straggle > 0 && Random.State.int rng straggle = 0 in
        (names.(Workload.Zipf.sample zipf rng), if late then version i - 1 else version i))
  in
  let (), write_ns =
    timed (fun () ->
        Array.iteri
          (fun i (key, v) ->
            if i > 0 && i mod per_version = 0 then
              Mvstore.gc store ~new_read_version:(version i - 2);
            ignore
              (Mvstore.write_upward store ~key ~version:v ~init:Value.empty
                 ~f:(Value.incr ~txn:i ~delta:1.)))
          draws)
  in
  let top = version (ops - 1) in
  let (), read_ns =
    timed (fun () ->
        Array.iter
          (fun (key, _) ->
            ignore
              (Sys.opaque_identity
                 (Mvstore.read_visible store ~key ~version:(top - 1))))
          draws)
  in
  (write_ns /. float_of_int ops, read_ns /. float_of_int ops)

(* Counter snapshots at the coordinator's poll width: one R row and one C
   column per poll reply. ns per (snapshot_r + snapshot_c). *)
let counters_snapshot_ns ~seed ~width ~snapshots =
  let rng = Random.State.make [| seed; 4 |] in
  let cnt = Counters.create ~nodes:width in
  for v = 1 to 3 do
    for _ = 1 to 4 * width do
      Counters.incr_r cnt ~version:v ~dst:(Random.State.int rng width);
      Counters.incr_c cnt ~version:v ~src:(Random.State.int rng width)
    done
  done;
  let (), ns =
    timed (fun () ->
        for i = 1 to snapshots do
          let version = 1 + (i mod 3) in
          ignore (Sys.opaque_identity (Counters.snapshot_r cnt ~version));
          ignore (Sys.opaque_identity (Counters.snapshot_c cnt ~version))
        done)
  in
  ns /. float_of_int snapshots
