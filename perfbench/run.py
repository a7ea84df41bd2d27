#!/usr/bin/env python3
"""Repository benchmark: verified throughput and simulated latency of the 3V
engine on the `steady`, `advance` and `faults` workloads.

Run from the repository root:

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

It builds perfbench/main (a dune project of its own that links the
repository's libraries) into .bench_build, then starts one fresh process
per measurement so that no measurement inherits another's heap:

* a set-up process that times batches of builds of the workload, each
  beside a run of the reference workload (setup_s);
* with --trace 0, repeated runs of the workload at --seed until --seconds
  have passed; wall-clock figures are medians over those runs, simulated
  figures come from the (deterministic) schedule they all share;
* with --trace 1, pairs of untraced and traced runs at --seed (the traced
  run records benchmark-side spans around every call into the generator
  and the engine, and around each checker), then one layer-replay process.

A calibration process runs before the first measurement process and after
each one. Every wall-clock figure is reported in calibrated seconds: see
CALIB_NOMINAL_S.

Every run must pass the correctness gate (perfbench/lib/gate.ml). The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
OUT_DIR = ".perfbench_out"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main", "main.exe")
WORKLOADS = ("steady", "advance", "faults")
SETUP_ROUNDS = 9
CHILD_TIMEOUT = 150

# The machine the benchmark runs on changes speed by up to 40 % over
# minutes and by 10-15 % between consecutive seconds. A fixed reference
# workload (perfbench/lib/calibrate.ml, standard library only, so no change
# to the repository can change its cost) is timed in its own process
# before and after every measurement process. A measured wall time t is
# reported as t * CALIB_NOMINAL_S / c, with c the mean of those two
# reference times: seconds at the reference workload's nominal speed,
# which is its median on the 2-core VM the bounds were fixed on.
CALIB_NOMINAL_S = 0.15
CALIB_REPS = 3

CHECKERS = ("serializability", "atomicity", "version_reads", "replay", "staleness")

# Wall-clock fields of a measurement process, scaled to calibrated seconds.
WALL_FIELDS = (
    ["drive_s", "verify_s", "drive.self_s", "sim.ns_per_event"]
    + ["checker.%s_s" % c for c in CHECKERS]
    + ["%s_%s" % (span, f) for span in ("workload.make", "engine.submit")
       for f in ("ns", "total_s")]
)

END_TO_END = [
    ("setup_s", "s"),
    ("sim_txn_per_s", "txn/s"),
    ("verified_txn_per_s", "txn/s"),
    ("peak_heap_mb", "MB"),
    ("update_block_p999_ms", "ms"),
    ("update_settle_p50_ms", "ms"),
    ("update_settle_p99_ms", "ms"),
    ("read_settle_p50_ms", "ms"),
    ("read_settle_p99_ms", "ms"),
    ("stale_missed_per_read", "count"),
    ("stale_lag_ms", "ms"),
    ("adv_per_sim_s", "1/s"),
]

# Per-layer figures the untraced run reports as counts or ratios of counts
# (identical on every run at one seed).
LAYER_COUNTS = [
    ("engine.subtxns_per_txn", "count"),
    ("sim.events_per_txn", "count"),
    ("net.msgs_per_txn", "count"),
    ("net.remote_msgs_per_txn", "count"),
    ("net.retransmits_per_txn", "count"),
    ("net.chan_acks_per_msg", "count"),
    ("net.dedup_dropped_per_msg", "count"),
    ("net.delivered_seen_final", "count"),
    ("store.copies_per_update", "count"),
    ("store.dual_writes_per_update", "count"),
    ("store.max_versions", "count"),
    ("coord.adv_completed", "count"),
    ("coord.polls_per_adv", "count"),
    ("coord.phase2_sim_ms_p50", "ms"),
    ("coord.phase4_sim_ms_p50", "ms"),
    ("coord.adv_sim_ms_max", "ms"),
    ("coord.phase_stalled", "count"),
    ("repl.mirrors_per_update", "count"),
    ("repl.failovers", "count"),
    ("repl.quorum_deferred", "count"),
    ("fd.heartbeats_sent", "count"),
    ("fd.suspicions", "count"),
    ("fd.confirmed", "count"),
    ("shard.vectored_read_frac", "ratio"),
    ("shard.rvector_deferred", "count"),
    ("checker.mvsg_edges_per_txn", "count"),
    ("checker.anti_edges_per_txn", "count"),
    ("gc.minor_words_per_event", "words"),
    ("gc.promoted_words_per_event", "words"),
    ("gc.major_collections", "count"),
    ("gc.sim_peak_heap_mb", "MB"),
    ("gc.verify_minor_words_per_txn", "words"),
]

# Per-layer wall-clock figures of the untraced runs (medians).
LAYER_TIMES = [
    ("sim.ns_per_event", "ns"),
    ("checker.serializability_s", "s"),
    ("checker.atomicity_s", "s"),
    ("checker.version_reads_s", "s"),
    ("checker.replay_s", "s"),
    ("checker.staleness_s", "s"),
]

# From the traced runs' spans (medians over traced runs).
LAYER_SPANS = [
    ("workload.make_ns", "ns"),
    ("workload.make_minor_words", "words"),
    ("workload.make_promoted_words", "words"),
    ("engine.submit_ns", "ns"),
    ("engine.submit_minor_words", "words"),
    ("engine.submit_promoted_words", "words"),
]

# From the layer-replay process.
LAYER_REPLAYS = [
    ("simul.replay_event_ns", "ns"),
    ("net.replay_send_recv_ns", "ns"),
    ("net.replay_reliable_send_recv_ns", "ns"),
    ("store.replay_write_upward_ns", "ns"),
    ("store.replay_read_visible_ns", "ns"),
    ("counters.replay_snapshot_ns", "ns"),
]

# Derived in this file: layer shares of the traced run's wall time, the
# replay-based estimates of engine-internal self time, and tracing cost.
LAYER_DERIVED = [
    ("share.workload_pct", "%"),
    ("share.engine_submit_pct", "%"),
    ("share.drive_internal_pct", "%"),
    ("share.checker_serializability_pct", "%"),
    ("share.checker_atomicity_pct", "%"),
    ("share.checker_version_reads_pct", "%"),
    ("share.checker_replay_pct", "%"),
    ("share.checker_staleness_pct", "%"),
    ("est.kernel_pct_of_drive", "%"),
    ("est.net_pct_of_drive", "%"),
    ("est.store_pct_of_drive", "%"),
    ("est.counters_pct_of_drive", "%"),
    ("trace.overhead_s", "s"),
    ("trace.overhead_pct", "%"),
]

PER_LAYER = LAYER_COUNTS + LAYER_TIMES + LAYER_SPANS + LAYER_REPLAYS + LAYER_DERIVED



class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        raise BenchError(
            "run from the repository root: dune-project and lib/ are missing"
        )
    if shutil.which("dune") is None:
        raise BenchError("dune is not on PATH")
    env = dict(os.environ, DUNE_CACHE="disabled")
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./perfbench/main/main.exe"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        universal_newlines=True, timeout=850,
    )
    if proc.returncode != 0 or not os.path.isfile(EXE):
        sys.stderr.write(proc.stdout)
        raise BenchError("build failed")


def child(args):
    """Runs one benchmark process; returns (exit code, its JSON object)."""
    env = {k: v for k, v in os.environ.items() if k != "OCAMLRUNPARAM"}
    proc = subprocess.run(
        [EXE] + [str(a) for a in args], env=env, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, universal_newlines=True, timeout=CHILD_TIMEOUT,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("benchmark process printed nothing: %r" % (args,))
    return proc.returncode, json.loads(lines[-1])


def calibration():
    _, r = child(["calib", "--reps", CALIB_REPS])
    return r["calib_s"]


def calibrate(r, scale):
    """r with its wall-clock fields in calibrated seconds."""
    return {k: v * scale if k in WALL_FIELDS else v for k, v in r.items()}


def setup_times(workload, seed):
    """(setup_s in calibrated seconds, uncalibrated median build time).
    Each round of the set-up process times a batch of builds and, just
    before it, one run of the reference workload, so the round's ratio is
    taken at one machine speed."""
    _, r = child(["setup", "--workload", workload, "--seed", seed,
                  "--rounds", SETUP_ROUNDS])
    rounds = range(SETUP_ROUNDS)
    ratio = statistics.median(
        r["build_%d" % i] / r["reference_%d" % i] for i in rounds)
    return (ratio * CALIB_NOMINAL_S,
            statistics.median(r["build_%d" % i] for i in rounds))


def run_once(workload, seed, trace=False):
    args = ["run", "--workload", workload, "--seed", seed]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        args += ["--trace", "--spans",
                 os.path.join(OUT_DIR, "spans-%s-%d.tsv" % (workload, seed))]
    code, r = child(args)
    if code not in (0, 1):
        raise BenchError("benchmark process exited with %d" % code)
    return r


def repeat(seconds, step):
    """Calls step() until `seconds` have passed (at least once), skipping a
    final call that would overrun. A calibration process runs before the
    first call and after each. Returns [(result, scale)], where scale turns
    that call's wall seconds into calibrated seconds."""
    start = time.monotonic()
    before = calibration()
    out = []
    while True:
        result = step()
        after = calibration()
        out.append((result, 2 * CALIB_NOMINAL_S / (before + after)))
        before = after
        elapsed = time.monotonic() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def verdict(runs):
    """(correct, attempted, failed, problems) over measured runs."""
    problems = []
    attempted = failed = 0
    for r in runs:
        attempted += r["submitted"]
        failed += r["aborted"] + r["unfinished"]
        if not r["gate_ok"]:
            failed += r["submitted"] - r["aborted"] - r["unfinished"]
            problems.append("gate: " + r["failures"])
    first = runs[0]
    for r in runs[1:]:
        if (r["digest"], r["events"]) != (first["digest"], first["events"]):
            problems.append(
                "runs of one seed differ in history digest or event count "
                "(%d/%d, %d/%d)" % (first["digest"], r["digest"],
                                    first["events"], r["events"]))
        if r["gc_settings"] != first["gc_settings"]:
            problems.append("GC settings differ between runs")
    return not problems, attempted, failed, problems


def med(runs, key):
    return statistics.median(r[key] for r in runs)


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds):
    setup_s, setup_raw = setup_times(workload, seed)
    measured = repeat(seconds, lambda: run_once(workload, seed))
    runs = [calibrate(r, scale) for r, scale in measured]
    first = runs[0]
    log("runs: %d  gc: %s" % (len(runs), first["gc_settings"]))
    log("setup_s: median of %d rounds; wall figures: median of %d runs; all "
        "in calibrated seconds (run scales %s)" % (
            SETUP_ROUNDS, len(runs),
            " ".join("%.3f" % s for _, s in measured)))
    log("uncalibrated: setup_s %.6g, drive_s %.6g, verify_s %.6g" % (
        setup_raw, med([r for r, _ in measured], "drive_s"),
        med([r for r, _ in measured], "verify_s")))
    values = {
        "setup_s": setup_s,
        "sim_txn_per_s": statistics.median(
            r["committed"] / r["drive_s"] for r in runs),
        "verified_txn_per_s": statistics.median(
            r["committed"] / (r["drive_s"] + r["verify_s"]) for r in runs),
        "peak_heap_mb": med(runs, "peak_heap_mb"),
    }
    for name, _ in END_TO_END:
        if name not in values:
            values[name] = first[name]
    # Percentiles are exact (nearest rank over every committed transaction);
    # print each with the number of samples it ranks.
    for name, unit in END_TO_END:
        n = first["read_samples"] if name.startswith("read_") else (
            first["update_samples"] if name.startswith("update_") else None)
        suffix = "" if n is None else "  (n=%d)" % n
        log("%-36s %14.6g %s%s" % (name, values[name], unit, suffix))
    metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
    return runs, metrics


def per_layer(workload, seed, seconds):
    pairs = repeat(
        seconds * 0.8,
        lambda: (run_once(workload, seed), run_once(workload, seed, trace=True)),
    )
    # verdict() refuses the run unless every untraced and traced run of the
    # seed has the same history digest and event count.
    plain = [calibrate(p, scale) for (p, _), scale in pairs]
    traced = [calibrate(t, scale) for (_, t), scale in pairs]
    first = plain[0]
    [(rep, rep_scale)] = repeat(0, lambda: child([
        "replay", "--workload", workload, "--seed", seed,
        "--inflight", first["inflight_mean"],
        "--subtxns", first["engine.subtxns_per_txn"],
        "--dual-frac", first["store.dual_writes_per_update"],
    ])[1])
    rep = {k: v * rep_scale if k.endswith("_ns") else v for k, v in rep.items()}
    values = {}
    for name, _ in LAYER_COUNTS:
        values[name] = first[name]
    for name, _ in LAYER_TIMES:
        values[name] = med(plain, name)
    for name, _ in LAYER_SPANS:
        values[name] = med(traced, name)
    for name, _ in LAYER_REPLAYS:
        values[name] = rep[name]

    # Layer shares of the traced run: spans the benchmark recorded itself.
    t = traced[0]
    total = t["drive_s"] + t["verify_s"]
    pct = lambda x: 100.0 * x / total
    values["share.workload_pct"] = pct(t["workload.make_total_s"])
    values["share.engine_submit_pct"] = pct(t["engine.submit_total_s"])
    values["share.drive_internal_pct"] = pct(t["drive.self_s"])
    for c in CHECKERS:
        values["share.checker_%s_pct" % c] = pct(t["checker.%s_s" % c])

    # Engine-internal self time, estimated from replays: operation counts
    # of the run times each layer's replayed cost per operation.
    drive_ns = first["drive_s"] * 1e9
    submitted = first["submitted"]
    subtxns = first["engine.subtxns_per_txn"] * submitted
    # Network sends include the reliable channel's acks; its replay cost is
    # per data message, ack included.
    msgs = first["net.msgs_per_txn"] * submitted
    if first["net.chan_acks_per_msg"] > 0:
        net_ns = ((1 - first["net.chan_acks_per_msg"]) * msgs
                  * rep["net.replay_reliable_send_recv_ns"])
    else:
        net_ns = msgs * rep["net.replay_send_recv_ns"]
    values["est.kernel_pct_of_drive"] = (
        100.0 * first["events"] * rep["simul.replay_event_ns"] / drive_ns)
    values["est.net_pct_of_drive"] = 100.0 * net_ns / drive_ns
    reads = first["read_samples"] / max(1, submitted) * subtxns
    writes = subtxns - reads
    values["est.store_pct_of_drive"] = 100.0 * (
        writes * rep["store.replay_write_upward_ns"]
        + reads * rep["store.replay_read_visible_ns"]) / drive_ns
    width = first["poll_width"]
    polls = first["coord.polls"]
    values["est.counters_pct_of_drive"] = (
        100.0 * polls * width * rep["counters.replay_snapshot_ns"] / drive_ns)

    wall = lambda r: r["drive_s"] + r["verify_s"]
    overhead = med(traced, "drive_s") + med(traced, "verify_s") - (
        med(plain, "drive_s") + med(plain, "verify_s"))
    values["trace.overhead_s"] = overhead
    values["trace.overhead_pct"] = 100.0 * overhead / statistics.median(
        wall(r) for r in plain)

    log("runs: %d untraced + %d traced; digests %s; events %s; replay "
        "queue depth %d; wall figures in calibrated seconds"
        % (len(plain), len(traced),
           sorted({r["digest"] for r in plain + traced}),
           sorted({r["events"] for r in plain + traced}), rep["replay.depth"]))
    log("layer shares of the traced run (%.2f calibrated s):" % total)
    for name in ["share.workload_pct", "share.engine_submit_pct",
                 "share.drive_internal_pct"] + [
                     "share.checker_%s_pct" % c for c in CHECKERS]:
        log("  %-36s %6.2f %%" % (name, values[name]))
    log("engine-internal self time estimated from replays (% of drive):")
    for name in ("est.kernel_pct_of_drive", "est.net_pct_of_drive",
                 "est.store_pct_of_drive", "est.counters_pct_of_drive"):
        log("  %-36s %6.2f %%" % (name, values[name]))
    metrics = {name: metric(values[name], unit) for name, unit in PER_LAYER}
    for name, m in metrics.items():
        log("%-36s %14.6g %s" % (name, m["value"], m["unit"]))
    return plain + traced, metrics


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    try:
        build()
        if a.trace:
            runs, metrics = per_layer(a.workload, a.seed, a.seconds)
        else:
            runs, metrics = end_to_end(a.workload, a.seed, a.seconds)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        return 1
    correct, attempted, failed, problems = verdict(runs)
    for msg in problems:
        log("FAILED: " + msg)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
