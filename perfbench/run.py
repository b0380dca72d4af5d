#!/usr/bin/env python3
"""Builds and runs the served tilestore benchmark (see perfbench/README.md).

One workload, as a benchmark gate calls it:

    python3 perfbench/run.py --workload olap_cold --seed 1 --seconds 30 --trace 0

Every workload, one row each, with every end-to-end metric and its unit:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Run it from the repository root. The first call configures and builds
`perfbench/` (and the tilestore library it links) with CMake into
`$CARGO_TARGET_DIR/perfbench`, or `.bench_build/perfbench` when that
variable is unset; later calls rebuild incrementally. Build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. The exit
code is the benchmark's; a failed build exits non-zero without a result.
"""

import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("olap_cold", "aoi_warm_cluster", "timeseries_ingest")

# Result-row fields `--all` prints besides the gated metrics, with units.
ROW_METRICS = (
    ("write_p50_ms", "ms"), ("write_p99_ms", "ms"), ("ingest_mib_s", "MiB/s"),
    ("model_ms", "ms"), ("error_rate", "ratio"),
)


def build(root):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "perfbench")
    source_dir = os.path.join(root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    step = ["cmake", "--build", build_dir, "--target", "perfbench",
            "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def flag(args, name, default=None):
    if name in args and args.index(name) + 1 < len(args):
        return args[args.index(name) + 1]
    return default


def run_all(binary, seed, seconds):
    """Runs every workload untraced and prints one row per workload."""
    failed = False
    for workload in WORKLOADS:
        proc = subprocess.run(
            [binary, "--workload", workload, "--seed", seed, "--seconds",
             seconds, "--trace", "0"], stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print("%s: failed (exit %d)" % (workload, proc.returncode))
            failed = True
            continue
        row, result = json.loads(lines[-2]), json.loads(lines[-1])
        cells = ["%s=%.6g %s" % (name, m["value"], m["unit"])
                 for name, m in result["metrics"].items()]
        cells += ["%s=%.6g %s" % (name, row[name], unit)
                  for name, unit in ROW_METRICS if name in row]
        print("%-18s correct=%s attempted=%d failed=%d  %s" % (
            workload, result["correct"], result["attempted"],
            result["failed"], "  ".join(cells)))
        failed = failed or not result["correct"] or result["failed"] > 0
    return 1 if failed else 0


def main(argv):
    args = argv[1:]
    run_every = "--all" in args
    if not run_every and flag(args, "--workload") not in WORKLOADS:
        print("usage: run.py --workload {%s} --seed N --seconds S "
              "--trace 0|1\n       run.py --all [--seed N] [--seconds S]"
              % "|".join(WORKLOADS), file=sys.stderr)
        return 2
    binary = build(os.getcwd())
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if run_every:
        return run_all(binary, flag(args, "--seed", "1"),
                       flag(args, "--seconds", "30"))
    sys.stdout.flush()
    code = subprocess.run([binary] + args).returncode
    if code < 0:  # killed by a signal: exit as a shell would, 128 + signal
        print("perfbench: killed by signal %d" % -code, file=sys.stderr)
        return 128 - code
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv))
