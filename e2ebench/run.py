#!/usr/bin/env python3
"""End-to-end WiClean benchmark: build, generate inputs, run one workload.

Run from the root of a checkout:

    python3 e2ebench/run.py --workload pipeline|ingest|serve --seed N \
        --seconds S --trace 0|1 [--scale full|smoke]

Steps: (1) configure and build e2ebench/ (the library from src/ plus the
benchmark binaries) in $CARGO_TARGET_DIR/e2ebench, default
.bench_build/e2ebench; (2) generate the workload's inputs from the seed into
.bench_data/ unless that seed's inputs already exist; (3) run the workload
process, which measures for S seconds and checks its outputs; (4) write the
full result to .bench_results/ and print one JSON object as the last line.

--trace 1 reports per-layer metrics from spans the benchmark records around
its calls into each layer, writes a Chrome trace_event file next to the
result, and also makes an untraced run of the same seed so that the tracing
overhead can be reported.
"""

import argparse
import datetime
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170

# The layer each workload is predicted to spend most of its time in.
PREDICTED = {
    "pipeline": ("core", "relational"),
    "ingest": ("dump",),
    "serve": ("serve",),
}
LAYERS = ("dump", "log", "core", "relational", "serve")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; build output to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", BENCH_DIR, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1),
         "--target", "wcbench", "wcbench_gen"],
        check=True, stdout=sys.stderr, stderr=sys.stderr)


def generate(build_dir, workload, seed, scale):
    data_dir = os.path.join(".bench_data", scale, "%s-%d" % (workload, seed))
    if os.path.exists(os.path.join(data_dir, "DONE")):
        return data_dir
    subprocess.run(["rm", "-rf", data_dir], check=True)
    subprocess.run(
        [os.path.join(build_dir, "wcbench_gen"), "--workload", workload,
         "--seed", str(seed), "--out", data_dir, "--scale", scale],
        check=True, stdout=sys.stderr, stderr=sys.stderr,
        timeout=RUN_TIMEOUT_S)
    return data_dir


def run_workload(build_dir, workload, data_dir, seconds, traced, trace_out):
    cmd = [os.path.join(build_dir, "wcbench"), "--workload", workload,
           "--data", data_dir, "--seconds", str(seconds),
           "--trace", "1" if traced else "0",
           "--scratch", os.path.join(".bench_data", "run", workload)]
    if traced:
        cmd += ["--trace-out", trace_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                          text=True, timeout=RUN_TIMEOUT_S)
    lines = [l for l in proc.stdout.splitlines() if l.startswith("{")]
    if not lines:
        raise RuntimeError("workload printed no result (exit %d)" %
                           proc.returncode)
    return json.loads(lines[-1])


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=BENCH_DIR,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def layer_report(workload, metrics):
    """Self-time shares of the traced run and the prediction check."""
    shares = {l: metrics.get(l + ".share", {}).get("value", 0) for l in LAYERS}
    predicted = PREDICTED[workload]
    dominant = max(LAYERS, key=lambda l: shares[l])
    predicted_share = sum(shares[l] for l in predicted)
    others = max(shares[l] for l in LAYERS if l not in predicted)
    holds = predicted_share > others
    lines = ["layer self-time shares (%s):" % workload]
    for l in LAYERS + ("bench",):
        lines.append("  %-10s %6.1f%%  self %.3fs" % (
            l, 100 * metrics.get(l + ".share", {}).get("value", 0),
            metrics.get(l + ".self_s", {}).get("value", 0)))
    verdict = ("prediction holds" if holds else "PREDICTION MISMATCH")
    lines.append("  predicted dominant: %s; measured dominant: %s -> %s" % (
        "+".join(predicted), dominant, verdict))
    return lines, {"shares": shares, "predicted": list(predicted),
                   "dominant": dominant, "prediction_holds": holds}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(PREDICTED))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args()

    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(build_root, "e2ebench"))
    try:
        build(build_dir)
        data_dir = generate(build_dir, args.workload, args.seed, args.scale)
        os.makedirs(".bench_results", exist_ok=True)
        stamp = datetime.datetime.now().strftime("%Y%m%dT%H%M%S")
        base = os.path.join(".bench_results", "%s-seed%d-trace%d-%s" % (
            args.workload, args.seed, args.trace, stamp))
        result = run_workload(build_dir, args.workload, data_dir,
                              args.seconds, args.trace == 1,
                              base + ".trace.json")
        untraced = None
        if args.trace == 1:
            untraced = run_workload(build_dir, args.workload, data_dir,
                                    args.seconds, False, None)
    except (subprocess.SubprocessError, OSError, RuntimeError,
            ValueError) as e:
        log("e2ebench: %s" % e)
        return 1

    info = result.get("info", {})
    release = info.get("build_type") == "Release"
    if not release:
        log("e2ebench: WARNING: not a Release build (%s); timings are not "
            "comparable" % info.get("build_type"))
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "scale": args.scale,
        "git_commit": git_commit(), "release_build": release,
        "correct": result["correct"], "attempted": result["attempted"],
        "failed": result["failed"], "metrics": result["metrics"],
        "end_to_end": result.get("e2e", {}), "report": result.get("report", {}),
        "info": info,
    }
    out_lines = ["%s seed %d: %s" % (
        args.workload, args.seed,
        ", ".join("%s=%.6g" % kv for kv in sorted(record["report"].items())))]
    if args.trace == 1:
        lines, shares = layer_report(args.workload, result["metrics"])
        out_lines += lines
        record["layers"] = shares
        overhead = {}
        for name, traced_value in result.get("e2e", {}).items():
            plain = untraced.get("e2e", {}).get(name)
            if plain:
                overhead[name] = (traced_value - plain) / plain
        record["tracing_overhead"] = overhead
        record["untraced_end_to_end"] = untraced.get("e2e", {})
        result["metrics"]["trace.overhead_frac"] = {
            "value": overhead.get("result_cpu_ms", 0.0), "unit": "ratio"}
        out_lines.append("tracing overhead (traced vs untraced, same seed): " +
                         ", ".join("%s %+.1f%%" % (k, 100 * v)
                                   for k, v in sorted(overhead.items())))
        record["trace_file"] = base + ".trace.json"
        record["correct"] = record["correct"] and untraced["correct"]
    with open(base + ".json", "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)
    for line in out_lines:
        print(line)
    print(json.dumps({"correct": record["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": result["metrics"]}))
    sys.stdout.flush()
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
