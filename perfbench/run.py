#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is a Cargo package of its
own (perfbench/Cargo.toml) built twice into $CARGO_TARGET_DIR (default
.bench_build): once as shipped and once with the `telemetry` feature,
which only the traced run uses. The last line printed is one JSON object
with `correct`, `attempted`, `failed` and `metrics`; the line before it
carries the workload's properties. With --trace 1 the untraced build runs
the first half of the time and the traced build the second, and
`trace.overhead_ratio` compares their headline latencies. `--workload all`
runs every workload BENCHMARK.json names, one after another, each printing
its two lines.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join(ROOT, "perfbench", "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
WORKLOADS = ("tc-skewed", "serve-hot", "serve-churn", "cluster-fanout")
RUN_TIMEOUT_S = 170


def target_dir():
    return os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build(traced):
    """Builds one variant and returns the path of its binary."""
    out = os.path.join(target_dir(), "perfbench-traced" if traced else "perfbench")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    if traced:
        cmd += ["--features", "telemetry"]
    env = dict(os.environ, CARGO_TARGET_DIR=out)
    binary = os.path.join(out, "release", "lotus-perfbench")
    before = os.path.getmtime(binary) if os.path.exists(binary) else None
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, timeout=850)
    if done.returncode != 0:
        raise RuntimeError("building the benchmark failed")
    if os.path.getmtime(binary) != before:
        # Write the fresh build out now, so its writeback does not
        # overlap the measured run.
        os.sync()
    return binary


def run_binary(binary, args, scratch):
    cmd = [binary] + args + [
        "--scratch", scratch,
        "--out-dir", os.path.join(target_dir(), "perfbench-out"),
    ]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if done.returncode == 2 or not lines:
        raise RuntimeError(f"{os.path.basename(binary)} could not run the workload")
    return json.loads(lines[-1]), done.returncode


def shaped(measured, trace):
    """Every metric BENCHMARK.json names for this mode, with its unit. An
    end-to-end metric must have been measured; a layer the workload does
    not exercise reads 0."""
    with open(SPEC) as f:
        wanted = json.load(f)["per_layer" if trace else "end_to_end"]
    out = {}
    for metric in wanted:
        value = measured.get(metric["name"])
        if value is None:
            if not trace:
                raise RuntimeError(f"{metric['name']} was not measured")
            value = 0.0
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return out


def emit(result, properties, trace):
    print(json.dumps({"properties": properties}))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": shaped(result["metrics"], trace),
    }))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="plant a wrong reference answer and check the run fails")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")

    plain = build(traced=False)
    traced = build(traced=True)
    scratch = os.path.join(target_dir(), "perfbench-scratch", str(os.getpid()))

    if args.self_test:
        for workload in WORKLOADS:
            result, code = run_binary(plain, ["--workload", workload, "--seed", "1", "--seconds", "2",
                                              "--trace", "0", "--setup-reps", "1", "--plant-wrong"], scratch)
            fired = code == 1 and result["correct"] is False and result["failed"] > 0
            print(f"{workload}: planted wrong reference {'caught' if fired else 'NOT caught'} "
                  f"({result['failed']} of {result['attempted']} ops failed)")
            if not fired:
                return 1
        return 0

    if args.workload != "all":
        return run_workload(args.workload, args, plain, traced, scratch)
    with open(SPEC) as f:
        gated = [w["name"] for w in json.load(f)["workloads"]]
    return max(run_workload(w, args, plain, traced, scratch) for w in gated)


def run_workload(workload, args, plain, traced, scratch):
    """Runs one workload, prints its properties and result lines, and
    returns the exit code."""
    common = ["--workload", workload, "--seed", str(args.seed)]
    if args.trace == 0:
        result, code = run_binary(plain, common + ["--seconds", str(args.seconds), "--trace", "0"], scratch)
        emit(result, result["properties"], trace=False)
        return code

    half = str(args.seconds / 2)
    base, code_base = run_binary(plain, common + ["--seconds", half, "--trace", "0", "--setup-reps", "1"], scratch)
    result, code = run_binary(traced, common + ["--seconds", half, "--trace", "1", "--setup-reps", "1"], scratch)
    metrics = dict(result["metrics"])
    metrics["trace.overhead_ratio"] = result["headline"] / base["headline"]
    merged = {
        "correct": result["correct"] and base["correct"],
        "attempted": result["attempted"] + base["attempted"],
        "failed": result["failed"] + base["failed"],
        "metrics": metrics,
    }
    properties = dict(result["properties"], untraced_headline=base["headline"], traced_headline=result["headline"])
    emit(merged, properties, trace=True)
    return code or code_base


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
