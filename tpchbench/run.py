#!/usr/bin/env python3
"""TPC-H sweep benchmark: builds tpch_sweep from the enclosing checkout,
runs one workload and prints its metrics.

Usage (from the root of the checkout):
  python3 tpchbench/run.py --workload tpch-rdma --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
and writes a Perfetto-loadable span trace under the build directory. The
last line of stdout is one JSON object:
  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Exit code 0 when every query answer matched the reference, 1 when one did
not (the result line is still printed), 2 when the run could not be made.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import metrics  # noqa: E402

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"tpchbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "tpchbench")


def build(out_dir):
    """Configures (once) and builds tpch_sweep; build logs go to stderr."""
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out_dir,
               "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out_dir, ignore_errors=True)
            fail("cmake configure failed")
    cmd = ["cmake", "--build", out_dir, "--target", "tpch_sweep", "-j", "4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out_dir, "tpch_sweep")


def run_sweep(binary, args, trace_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out", trace_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"tpch_sweep exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"tpch_sweep exited with {proc.returncode}")
    return json.loads(proc.stdout)


def print_table(title, values):
    print(title)
    for name, (value, unit) in values.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = spec()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload}")
    out_dir = build_dir()
    binary = build(out_dir)
    trace_path = os.path.join(out_dir, "traces",
                              f"{args.workload}-seed{args.seed}.json")
    if args.trace:
        os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    doc = run_sweep(binary, args, trace_path)

    meta = doc["meta"]
    attempted, failed, messages = metrics.errors(doc)
    for msg in messages:
        print(f"tpchbench: {msg}", file=sys.stderr)

    units_of_work = "workers" if meta["platform"] == "lambda" else "ranks"
    print(f"workload {meta['workload']}: {meta['platform']} "
          f"({meta['exchange']} exchange), {meta['ranks']} {units_of_work} x "
          f"{meta['threads_per_rank']} thread(s), SF {meta['sf']}, "
          f"memory_limit_bytes {meta['memory_limit_bytes']}, "
          f"seed {meta['seed']}")
    print(f"host: nproc {meta['nproc']}, {meta['cpu_model']}, host_calib_s "
          f"{meta['host_calib_before_s']:.4f} before / "
          f"{meta['host_calib_after_s']:.4f} after the sweeps")
    print(f"error_rate: {failed}/{attempted} = {failed / attempted:.6g}")

    if args.trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        bad = metrics.breakdown_errors(doc)
        if bad:
            fail("rank breakdown does not reproduce phase.rank_total: "
                 + "; ".join(bad[:3]))
        values = metrics.per_layer(doc, units)
        if meta["memory_limit_bytes"] and not all(
                values[f"storage.spill_ops.{op}"][0] > 0
                for op in ("BuildProbe", "ReduceByKey")):
            print("tpchbench: warning: BuildProbe and ReduceByKey no longer "
                  "both spill at this budget; choose it again by that rule",
                  file=sys.stderr)
        print_table("per-layer (medians over traced sweeps)", values)
        print(f"bench.trace_overhead base: untraced wall.sweep_p50_s "
              f"{values['wall.sweep_p50_s'][0]:.6f} s")
        print(f"trace: {trace_path}")
    else:
        values, (wall, notes) = metrics.end_to_end(doc)
        if wall["sweep_tail_s"] < wall["sweep_p50_s"]:
            fail("sweep_tail_s below sweep_p50_s")
        print(f"sweeps: {notes['sweep_samples']} in {meta['measure_s']:.1f} s;"
              f" sweep_tail_s is p{notes['sweep_tail_percentile']:.1f} of "
              f"{notes['sweep_samples']}")
        print_table("wall clock (reported, not an end-to-end metric)",
                    {k: (v, "s") for k, v in wall.items()})
        print_table("end-to-end", values)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
