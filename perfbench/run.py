#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/ in Release and runs one workload.

    python3 perfbench/run.py --workload rlhf_real --seed 1 --seconds 20 --trace 0

Run from the repository root. The first run configures and builds a
Release tree with sync contracts compiled out under perfbench/_build/
(separate from build/); later runs only re-check it. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics and
the per-module self-time table. Each run also writes its full record
(provenance, every metric, the table) to perfbench/results/. The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = BENCH_DIR / "_build"
RESULTS_DIR = BENCH_DIR / "results"
BINARY = BUILD_DIR / "hf_perfbench"
WORKLOADS = ("rlhf_real", "rlhf_sim")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the Release tree; exits 1 on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no HybridFlow sources under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.is_file() and f"CMAKE_HOME_DIRECTORY:INTERNAL={BENCH_DIR}" not in cache.read_text():
        shutil.rmtree(BUILD_DIR)  # Tree configured for another checkout.
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    steps = []
    if not cache.is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "hf_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (log: {log_path})")


def provenance(raw, args):
    sha = "none"
    if shutil.which("git") is not None:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    keys = ("build_type", "sync_contracts", "simd", "nproc", "shared_pool_threads",
            "tensor_threads")
    info = {key: raw[key] for key in keys}
    info.update(git_sha=sha, src_sha256=digest.hexdigest()[:16], workload=args.workload,
                seed=args.seed, seconds=args.seconds, trace=args.trace)
    return info


def percentile(values, q):
    """Linear-interpolated q-quantile (0 <= q <= 1) of `values`."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values):
    """Highest percentile with at least ten samples beyond it (never below p50)."""
    q = max(0.5, 1.0 - 10.0 / len(values))
    return q, percentile(values, q)


def end_to_end(raw):
    ops = raw["op_s"]
    q, tail_s = tail(ops)
    metrics = {
        "setup_s": (statistics.median(raw["setup_s"]), "s"),
        "op_s_p50": (statistics.median(ops), "s"),
        "op_s_tail": (tail_s, "s"),
        "tokens_per_s": (raw["tokens"] / raw["measured_wall_s"], "tok/s"),
        "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        "sim_tokens_per_s": (raw["sim_tokens_per_s"], "tok/s"),
        "sim_op_s": (raw["sim_op_s"], "s"),
    }
    notes = {"op_s_tail_percentile": round(100.0 * q, 2), "op_samples": len(ops),
             "setup_samples": len(raw["setup_s"])}
    return metrics, notes


def parse_registry(jsonl):
    """(name, sorted labels) -> instrument record."""
    series = {}
    for line in jsonl.splitlines():
        if line.strip():
            record = json.loads(line)
            series[(record["name"], tuple(sorted(record.get("labels", {}).items())))] = record
    return series


def registry_delta(before, after, name, field, labels=None):
    """Growth of `field` ("value", "sum" or "count") summed over every label
    set of `name` (or only those containing `labels`)."""
    total = 0.0
    for key, record in after.items():
        if key[0] != name or (labels and not set(labels.items()) <= set(key[1])):
            continue
        total += record.get(field, 0.0) - before.get(key, {}).get(field, 0.0)
    return total


def per_layer(raw):
    layer = raw["layer"]
    ops = len(raw["traced_op_s"])
    traced_p50 = statistics.median(raw["traced_op_s"])
    untraced_p50 = statistics.median(raw["op_s"])
    before = parse_registry(raw["registry_before"])
    after = parse_registry(raw["registry_after"])

    def delta(name, field, labels=None):
        return registry_delta(before, after, name, field, labels)

    def per_op(value):
        return value / ops

    def ratio(num, den):
        return num / den if den else 0.0

    kernel_us = delta("tensor.kernel_us", "sum")
    kernel_calls = delta("tensor.kernel_us", "count")
    flops = delta("tensor.flops_total", "value")
    rollout_sim_us = layer.get("rollout_sim.call_us", 0.0)
    rollout_sim_steps = layer.get("rollout_sim.steps", 0.0)
    serving_steps = layer.get("serving.steps", 0.0)
    replay_us = layer.get("serving.replay_us", 0.0)
    map_us = layer.get("mapping.map_us", 0.0)
    sims = layer.get("mapping.simulations", 0.0)
    hits = layer.get("mapping.cache_hits", 0.0)
    traced_total_us = sum(raw["traced_op_s"]) * 1e6
    metrics = {
        "tensor.kernel_ms_per_op": (per_op(kernel_us) / 1e3, "ms"),
        "tensor.calls_per_op": (per_op(kernel_calls), "count"),
        "tensor.us_per_call": (ratio(kernel_us, kernel_calls), "us"),
        "tensor.gflops": (ratio(flops, kernel_us) / 1e3, "GFLOP/s"),
        "nn.adam_ms_per_op": (per_op(delta("tensor.kernel_us", "sum", {"op": "adam_step"})) / 1e3,
                              "ms"),
        "threadpool.tasks_per_op": (per_op(delta("threadpool.tasks_completed", "value")), "count"),
        "threadpool.queue_wait_ms_per_op": (
            per_op(delta("threadpool.queue_latency_us", "sum")) / 1e3, "ms"),
        "workers.dispatch_calls_per_op": (per_op(layer.get("workers.dispatch_calls", 0.0)),
                                          "count"),
        "workers.dispatch_self_ms_per_op": (
            per_op(layer.get("workers.dispatch_self_us", 0.0)) / 1e3, "ms"),
        "workers.compute_ms_per_op": (per_op(layer.get("workers.compute_us", 0.0)) / 1e3, "ms"),
        "transfer.calls_per_op": (per_op(delta("protocol.distribute_calls", "value") +
                                         delta("protocol.collect_calls", "value")), "count"),
        "transfer.ms_per_op": (per_op(layer.get("transfer.us", 0.0)) / 1e3, "ms"),
        "hybridengine.reshard_ms_per_op": (
            per_op(layer.get("hybridengine.reshard_us", 0.0)) / 1e3, "ms"),
        "hybridengine.transition_call_us": (layer.get("hybridengine.transition_call_us", 0.0),
                                            "us"),
        "rollout.generate_ms_per_op": (per_op(layer.get("rollout.generate_us", 0.0)) / 1e3, "ms"),
        "rollout.steps_per_op": (per_op(delta("rollout.steps_total", "value", {"plane": "data"})),
                                 "count"),
        "rollout.preemptions_per_op": (
            per_op(delta("rollout.preemptions_total", "value", {"plane": "data"})), "count"),
        "rollout_sim.call_ms": (rollout_sim_us / 1e3, "ms"),
        "rollout_sim.steps_per_call": (rollout_sim_steps, "count"),
        "rollout_sim.us_per_step": (ratio(rollout_sim_us, rollout_sim_steps), "us"),
        "rollout_sim.share_of_op": (layer.get("rollout_sim.share_of_op", 0.0), "frac"),
        "kvcache.peak_util": (layer.get("kvcache.peak_util", 0.0), "frac"),
        "kvcache.preemptions": (layer.get("kvcache.preemptions", 0.0), "count"),
        "kvcache.prefix_hit_frac": (layer.get("kvcache.prefix_hit_frac", 0.0), "frac"),
        "serving.replay_ms": (replay_us / 1e3, "ms"),
        "serving.steps_per_replay": (serving_steps, "count"),
        "serving.us_per_step": (ratio(replay_us, serving_steps), "us"),
        "serving.preemptions": (layer.get("serving.preemptions", 0.0), "count"),
        "serving.prefix_hit_frac": (layer.get("serving.prefix_hit_frac", 0.0), "frac"),
        "serving.expired_frac": (layer.get("serving.expired_frac", 0.0), "frac"),
        "serving.cancelled_frac": (layer.get("serving.cancelled_frac", 0.0), "frac"),
        "serving.kv_high_water_blocks": (layer.get("serving.kv_high_water_blocks", 0.0),
                                         "count"),
        "serving.sim_goodput_tok_s": (layer.get("serving.sim_goodput_tok_s", 0.0), "tok/s"),
        "serving.sim_ttft_p50_s": (layer.get("serving.sim_ttft_p50_s", 0.0), "s"),
        "serving.sim_ttft_p99_s": (layer.get("serving.sim_ttft_p99_s", 0.0), "s"),
        "mapping.map_ms": (map_us / 1e3, "ms"),
        "mapping.simulations": (sims, "count"),
        "mapping.cache_hit_frac": (ratio(hits, hits + sims), "frac"),
        "mapping.share_of_setup": (layer.get("mapping.share_of_setup", 0.0), "frac"),
        "rlhf.generation_ms_per_op": (per_op(layer.get("rlhf.generation_us", 0.0)) / 1e3, "ms"),
        "rlhf.experience_ms_per_op": (per_op(layer.get("rlhf.experience_us", 0.0)) / 1e3, "ms"),
        "rlhf.learning_ms_per_op": (per_op(layer.get("rlhf.learning_us", 0.0)) / 1e3, "ms"),
        "rlhf.unattributed_frac": (ratio(raw["rlhf_unattributed_us"], raw["rlhf_iteration_us"]),
                                   "frac"),
        "sim.spans_per_op": (layer.get("sim.spans_per_op", 0.0), "count"),
        "obs.trace_overhead_frac": ((traced_p50 - untraced_p50) / untraced_p50, "frac"),
        "obs.wall_spans_per_op": (per_op(raw["wall_spans"]), "count"),
        "obs.unattributed_frac": (ratio(raw["unattributed_us"], traced_total_us), "frac"),
    }
    table = [{"module": name, "self_ms_per_op": row["self_us"] / 1e3 / ops,
              "share_of_op": row["self_us"] / traced_total_us,
              "spans_per_op": row["count"] / ops}
             for name, row in raw["modules"].items()]
    table.sort(key=lambda row: -row["self_ms_per_op"])
    table.append({"module": "unattributed", "self_ms_per_op": raw["unattributed_us"] / 1e3 / ops,
                  "share_of_op": raw["unattributed_us"] / traced_total_us, "spans_per_op": 0.0})
    return metrics, table


def print_table(table):
    print(f"{'module':<14} {'self ms/op':>12} {'share':>8} {'spans/op':>10}")
    for row in table:
        print(f"{row['module']:<14} {row['self_ms_per_op']:>12.3f} "
              f"{100.0 * row['share_of_op']:>7.1f}% {row['spans_per_op']:>10.1f}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    command = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{args.workload} exited with code {proc.returncode}")
    raw = json.loads(lines[-1])

    info = provenance(raw, args)
    e2e, notes = end_to_end(raw)
    record = {"provenance": info, "end_to_end": e2e, "notes": notes,
              "attempted": int(raw["attempted"]), "failed": int(raw["failed"]),
              "failures": raw["failures"]}
    print("provenance: " + " ".join(f"{k}={v}" for k, v in info.items()))
    for name, (value, unit) in e2e.items():
        print(f"{name:<18} {value:>16.6g} {unit}")
    print(f"op_s_tail is p{notes['op_s_tail_percentile']:g} of {notes['op_samples']} operations; "
          f"setup_s is the median of {notes['setup_samples']} set-ups")
    if args.trace:
        layers, table = per_layer(raw)
        record.update(per_layer=layers, modules=table)
        for name, (value, unit) in layers.items():
            print(f"{name:<34} {value:>14.6g} {unit}")
        print_table(table)
        metrics = layers
    else:
        metrics = e2e
    for failure in raw["failures"]:
        print(f"FAILED: {failure}", file=sys.stderr)

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    result = {"correct": raw["failed"] == 0, "attempted": int(raw["attempted"]),
              "failed": int(raw["failed"]),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
