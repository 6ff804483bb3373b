#!/usr/bin/env python3
"""Campaign benchmark: replicas/s of named campaigns, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload storm --seed 909 --seconds 25 --trace 0

The first run builds perfbench/campaign_bench (and the libraries from src/)
into .bench_build, or into $CARGO_TARGET_DIR when that is set.

--trace 0 spawns fresh setup probes, then runs the campaign pipeline
alternately at --jobs 1 and --jobs 4, a fresh process per pass as a user's
campaign gets, for --seconds, and prints the end-to-end metrics. --trace 1
repeats the traced pass for --seconds and prints the per-layer metrics.
Both check every campaign output: at the workload's default seed against
the digests recorded below, at any other seed for equality between
--jobs 1 and --jobs 4. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A mismatch or a failed replica makes the exit code 1.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("storm", "fleet", "short_sweep", "ckpt_telemetry")

# Fresh processes per run for setup_s; the median is reported.
SETUP_PROBES = 21

# Output digests (FNV-1a 64 and byte length) at each workload's default
# seed: the aggregate CSV and, with telemetry, the merged ledger JSONL and
# its analysis CSV.
EXPECTED = {
    "storm": {"csv": "2c2ab42afa618c42-9312"},
    "fleet": {"csv": "3a0b28dc6d1a9cfd-17297"},
    "short_sweep": {"csv": "e87cb22aee81fc56-38016"},
    "ckpt_telemetry": {
        "csv": "0864554d0d9dc5bf-8830",
        "ledger": "1f390929eb441933-209742",
        "analysis": "da53829faa332f7e-2024",
    },
}

END_TO_END = {
    "replicas_per_s": "1/s",
    "replicas_per_s_j4": "1/s",
    "sim_steps_per_s": "1/s",
    "replica_ms_p50": "ms",
    "replica_ms_max": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "replica_ok_ratio": "ratio",
}

PER_LAYER = {
    "scenario.parse_us": "us",
    "scenario.expand_us_per_cell": "us",
    "scenario.build_us_p50": "us",
    "scenario.run_us_p50": "us",
    "scenario.build_share_pct": "%",
    "nn.model_by_name_us": "us",
    "cloud.provider_ctor_us": "us",
    "cloud.callback_pct": "%",
    "simcore.events_per_replica": "count",
    "simcore.ns_per_event": "ns",
    "simcore.self_pct": "%",
    "simcore.max_queue_depth": "count",
    "train.callback_pct": "%",
    "train.steps_per_replica": "count",
    "supervise.callback_pct": "%",
    "fleet.callback_pct": "%",
    "fleet.tick_us": "us",
    "ckpt.callback_pct": "%",
    "ckpt.writes_per_replica": "count",
    "ckpt.verified_restores_per_replica": "count",
    "ckpt.quarantines_per_replica": "count",
    "exp.engine_overhead_pct": "%",
    "exp.pool_busy_pct_j4": "%",
    "exp.critical_path_pct_j4": "%",
    "exp.write_csv_us": "us",
    "obs.capture_overhead_pct": "%",
    "obs.trace_records": "count",
    "obs.ledger_events": "count",
    "obs.ledger_write_ms": "ms",
    "obs.analyze_ms": "ms",
    "trace.overhead_pct": "%",
    "trace.build_run_cover_pct": "%",
    "trace.callback_cover_pct": "%",
}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Builds campaign_bench; returns its path, or None on failure."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: no src/ beside perfbench/; run from a full checkout")
        return None
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir] + generator)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "campaign_bench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            log("perfbench: build failed: " + " ".join(step))
            return None
    return os.path.join(build_dir, "campaign_bench")


def run_child(binary, args):
    """Runs campaign_bench; returns (its JSON output, its rusage)."""
    env = dict(os.environ, CMDARE_LOG_LEVEL="error")
    child = subprocess.Popen([binary] + args, stdout=subprocess.PIPE, env=env)
    out = child.stdout.read()
    child.stdout.close()
    _, status, rusage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    if child.returncode != 0:
        raise RuntimeError("campaign_bench %s exited %d" % (" ".join(args), child.returncode))
    return json.loads(out), rusage


def check_outputs(pipelines, expected):
    """Counts campaign passes whose output digests are wrong.

    With `expected` every pass must reproduce it byte for byte; without,
    every pass (--jobs 1 and --jobs 4 alike) must match the first."""
    reference = expected if expected is not None else pipelines[0]["digests"]
    return sum(1 for p in pipelines if p["digests"] != reference)


def end_to_end(pipelines, setup_s, failed, attempted):
    """Folds measured campaign passes into the end-to-end metrics."""
    serial = [p for p in pipelines if not p["wide"]]
    wide = [p for p in pipelines if p["wide"]]

    def rate(runs, work):
        return statistics.median(work(p) / p["wall_s"] for p in runs)

    def completed(p):
        return p["replicas"] - p["failed"]

    replica_ms = [ms for p in serial for ms in p["replica_ms"] if ms >= 0]
    # Replica work is seed-deterministic, so the slowest replica is the same
    # one in every pass: take each replica's median over the passes first.
    per_replica = [statistics.median(ms for ms in calls if ms >= 0)
                   for calls in zip(*(p["replica_ms"] for p in serial))
                   if any(ms >= 0 for ms in calls)]
    return {
        "replicas_per_s": rate(serial, completed),
        "replicas_per_s_j4": rate(wide, completed),
        "sim_steps_per_s": rate(serial, lambda p: p["steps"]),
        "replica_ms_p50": statistics.median(replica_ms),
        "replica_ms_max": max(per_replica),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": statistics.median(p["rss_kb"] for p in wide) / 1024.0,
        "replica_ok_ratio": 1.0 - failed / attempted,
    }


def per_layer(iterations):
    """Median of each per-layer metric over the traced iterations."""
    return {name: statistics.median(it[name] for it in iterations) for name in PER_LAYER}


def result_line(correct, attempted, failed, metrics, units):
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    })


def repeat(seconds, body):
    """Calls body() while another call still fits in `seconds` (once at least)."""
    start = time.monotonic()
    while True:
        began = time.monotonic()
        body()
        now = time.monotonic()
        if now - start + (now - began) > seconds:
            return


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, help="campaign seed (default: the workload's)")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    binary = build()
    if binary is None:
        return 2
    common = ["--workload", args.workload]
    if args.seed is not None:
        common += ["--seed", str(args.seed)]
    wide = min(4, os.cpu_count() or 1)
    pipelines = []
    layers = []
    setup_s = []
    info = {}

    def campaign_round():
        for is_wide, jobs in ((False, 1), (True, wide)):
            out, rusage = run_child(binary, common + ["--mode", "pass", "--jobs", str(jobs)])
            info.update(out)
            out["pipeline"].update(wide=is_wide, rss_kb=rusage.ru_maxrss)
            pipelines.append(out["pipeline"])

    def trace_round():
        out, _ = run_child(binary, common + ["--mode", "trace", "--jobs", str(wide)])
        info.update(out)
        layers.append(out["layers"])
        serial, parallel = out["pipelines"]
        pipelines.extend([dict(serial, wide=False), dict(parallel, wide=True)])

    if args.trace:
        repeat(args.seconds, trace_round)
    else:
        setup_s = [run_child(binary, common + ["--mode", "setup"])[0]["setup_s"]
                   for _ in range(SETUP_PROBES)]
        repeat(args.seconds, campaign_round)

    default_seed = info["seed"] == info["default_seed"]
    mismatches = check_outputs(pipelines, EXPECTED[args.workload] if default_seed else None)
    replicas_failed = sum(p["failed"] for p in pipelines)
    attempted = sum(p["replicas"] for p in pipelines)
    failed = replicas_failed + mismatches
    correct = failed == 0

    serial = sum(1 for p in pipelines if not p["wide"])
    print("workload %s, seed %d%s: %d campaign passes at --jobs 1, %d at --jobs %d; "
          "outputs %s %s"
          % (args.workload, info["seed"], " (default)" if default_seed else "",
             serial, len(pipelines) - serial, wide,
             "match" if mismatches == 0 else "DIFFER from",
             "the recorded digests" if default_seed else "across passes"))

    if args.trace:
        metrics = per_layer(layers)
        units = PER_LAYER
        print("per-layer metrics (median of %d traced iterations):" % len(layers))
    else:
        metrics = end_to_end(pipelines, setup_s, failed, attempted)
        units = END_TO_END
        replicas = len(pipelines[0]["replica_ms"])
        print("end-to-end metrics (each pass a fresh process; replica_ms_p50 over n=%d "
              "replica calls; replica_ms_max the slowest of %d replicas, each the median of "
              "its %d calls; setup_s the median of %d fresh processes; peak_rss_mb the "
              "median of the --jobs %d processes):"
              % (replicas * serial, replicas, serial, len(setup_s), wide))
    for name, unit in units.items():
        print("  %-36s %16.6g %s" % (name, metrics[name], unit))
    if not args.trace:
        print("  %-36s %16.6g ratio (%d of %d replicas failed or mismatched)"
              % ("replica_fail_ratio", failed / attempted, failed, attempted))
    else:
        print("  tracing overhead: run() with the SimProfiler attached takes %+.1f%% vs without"
              % metrics["trace.overhead_pct"])
        print("  check: constructor + run() account for %.1f%% of the replica-call time"
              % metrics["trace.build_run_cover_pct"])
        print("  check: layer callback shares + simcore.self_pct cover %.1f%% of run()"
              % metrics["trace.callback_cover_pct"])
    print(result_line(correct, attempted, failed, metrics, units))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
