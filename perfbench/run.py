#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see perfbench/README.md).

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
      One run: builds the benchmark from source into .bench_build (first
      run only; later runs just re-check), runs the workload, and passes
      the benchmark program's output through.  The last stdout line is
      the JSON result.  Exit status 0 unless the build or the run fails.

  python3 perfbench/run.py --steady --workload <name> [--runs 10]
                           [--first-seed 1] [--seconds <s>]
      Steadiness mode: runs the workload once per seed and prints, for
      every end-to-end metric, the median, the quartiles and the spread
      (Q3 - Q1) / median against the metric's bound in BENCHMARK.json.

  python3 perfbench/run.py --selftest
      Builds and runs the harness self-tests (perfbench/tests).

Run from the root of a checkout.  Everything the benchmark writes lands
under .bench_build in that checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("fig2c-sweep", "cli-analyze", "admit-session")
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
CMAKE_BUILD = BUILD / "cmake"
BINARY = CMAKE_BUILD / "perfbench"
SELFTEST = CMAKE_BUILD / "perfbench_selftest"
MCS_BENCH = CMAKE_BUILD / "repo" / "bench" / "mcs_bench"
MCS_CLI = CMAKE_BUILD / "repo" / "tools" / "mcs_cli"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no repository sources (CMakeLists.txt, src/)")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (CMAKE_BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_BUILD), "-j", jobs,
                  "--target", *targets])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def bench_env():
    env = dict(os.environ)
    for var in ("MCS_SEED", "MCS_TASKSETS", "MCS_THREADS"):
        env.pop(var, None)
    env["MCS_TELEMETRY"] = "0"
    return env


def run_once(workload, seed, seconds, trace, capture):
    workdir = BUILD / "runs" / f"{workload}-seed{seed}{'-traced' if trace else ''}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--root", str(ROOT), "--workdir", str(workdir),
           "--mcs-bench", str(MCS_BENCH), "--mcs-cli", str(MCS_CLI)]
    return subprocess.run(cmd, cwd=ROOT, env=bench_env(), text=True,
                          stdout=subprocess.PIPE if capture else None)


def bounds():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def steady(workload, runs, first_seed, seconds):
    limits = bounds()
    values = {}
    for seed in range(first_seed, first_seed + runs):
        done = run_once(workload, seed, seconds, False, capture=True)
        if done.returncode != 0:
            fail(f"{workload} seed {seed} exited {done.returncode}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']} correct {result['correct']}")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    print(f"\n{workload}: {runs} runs, seeds {first_seed}..{first_seed + runs - 1}")
    print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}"
          f"{'spread':>9}{'bound':>7}  verdict")
    worst = "steady"
    for name, xs in values.items():
        q1, _, q3 = statistics.quantiles(xs, n=4)
        med = statistics.median(xs)
        spread = (q3 - q1) / med if med else float("inf")
        bound = limits[name]["bound"]
        if name == "setup_s":
            verdict = "exempt from the spread rule"
        elif spread < bound / 3:
            verdict = "steady (< bound/3)"
        elif spread <= bound:
            verdict = "within bound, not below bound/3"
            worst = "marginal" if worst == "steady" else worst
        else:
            verdict = "TOO NOISY"
            worst = "noisy"
        print(f"  {name:<18}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
              f"{spread:>9.4f}{bound:>7.2f}  {verdict}")
    print(f"overall: {worst}")
    return 0 if worst != "noisy" else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steady", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        build(["perfbench_selftest"])
        return subprocess.run([str(SELFTEST)], cwd=ROOT).returncode
    if args.workload is None:
        parser.error("--workload is required")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    build(["perfbench", "mcs_bench", "mcs_cli"])
    if args.steady:
        return steady(args.workload, args.runs, args.first_seed, seconds)
    return run_once(args.workload, args.seed, seconds, args.trace == 1,
                    capture=False).returncode


if __name__ == "__main__":
    sys.exit(main())
