#!/usr/bin/env python3
"""Pins the solver work of `mcs_cli analyze --approach=all` per workload.

For every committed workloads/**/*.wl file, runs

    mcs_cli analyze <file> --approach=all --telemetry=<snapshot>

and compares a fixed set of work counters from the snapshot exactly with
tests/golden/cli/work_counts.json.  The counters count MILP solves, B&B
nodes, simplex pivots, bound flips, refactorizations and eta entries, so
any change to the pivot sequence of the simplex kernel or to the branch &
bound search shows up here even when the verdicts do not move.

Usage:
    cli_work_counts.py <mcs_cli> <source-dir>            # check
    cli_work_counts.py <mcs_cli> <source-dir> --record   # rewrite golden

Regenerate the golden file only for an intended change of the search.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

COUNTERS = (
    "milp.solves",
    "milp.nodes_explored",
    "milp.lp_iterations",
    "simplex.warm_pivots",
    "simplex.cold_pivots",
    "simplex.bound_flips",
    "simplex.refactorizations",
    "simplex.eta_nnz",
)


def work_counts(cli, workload, snapshot):
    proc = subprocess.run(
        [cli, "analyze", str(workload), "--approach=all",
         f"--telemetry={snapshot}"],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    # Exit 1 is a negative verdict, not an error.
    if proc.returncode not in (0, 1):
        raise RuntimeError(f"mcs_cli analyze {workload} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    counters = json.loads(Path(snapshot).read_text())["counters"]
    return {name: counters.get(name, 0) for name in COUNTERS}


def main():
    if len(sys.argv) not in (3, 4) or sys.argv[3:] not in ([], ["--record"]):
        print(__doc__, file=sys.stderr)
        return 2
    cli, src = sys.argv[1], Path(sys.argv[2])
    golden_path = src / "tests" / "golden" / "cli" / "work_counts.json"
    workloads = sorted((src / "workloads").rglob("*.wl"))

    with tempfile.TemporaryDirectory() as tmp:
        snapshot = Path(tmp) / "telemetry.json"
        actual = {wl.relative_to(src).as_posix():
                  work_counts(cli, wl, snapshot) for wl in workloads}

    if sys.argv[3:] == ["--record"]:
        golden_path.write_text(json.dumps(actual, indent=2) + "\n")
        print(f"recorded {len(actual)} workloads in {golden_path}")
        return 0

    golden = json.loads(golden_path.read_text())
    failures = 0
    for name in sorted(set(golden) | set(actual)):
        if name not in golden:
            print(f"FAIL: {name} has no golden entry")
            failures += 1
            continue
        if name not in actual:
            print(f"FAIL: golden entry {name} names no committed workload")
            failures += 1
            continue
        for counter in COUNTERS:
            want, got = golden[name].get(counter), actual[name][counter]
            if want != got:
                print(f"FAIL: {name} {counter}: expected {want}, got {got}")
                failures += 1
    if failures:
        return 1
    print(f"work counts match for {len(actual)} workloads")
    return 0


if __name__ == "__main__":
    sys.exit(main())
