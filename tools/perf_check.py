#!/usr/bin/env python3
"""Performance gates for CI.

Dispatches on the JSON schema of the fresh bench result:

mcs-bench-solver-v1 (written by `mcs_bench ablation_solver`)
  Compared against the committed BENCH_solver.json baseline; fails when
  the warm-started solver has regressed:
    * total simplex pivots of the warm strategies grew by more than the
      allowed factor over the baseline run, or
    * the warm-vs-cold pivot reduction measured in the fresh run fell
      below the required floor (warm restarts must at least halve the
      pivot count), or
    * the presolve axis regressed: the same-run wall-time speedup of
      "plain, 2%gap, warm+pre" over "plain, 2%gap, warm" fell below the
      floor, or presolve stopped removing anything at all, or
    * the kernel axis regressed: the same-run wall-time speedup of the
      sparse revised-simplex kernel over the dense tableau reference on
      "plain, 2%gap, warm" fell below the floor, or the two kernels
      stopped proving the same optimum on the "alpha, prove, warm" pair
      (their mean bounds must be identical — the 2%-gap strategies hit
      node limits at different trees, so only the prove pair pins bound
      identity).
  Cross-run wall-clock numbers are recorded in the JSON for human
  inspection but deliberately NOT gated on: CI machines are too noisy for
  stable timing thresholds, whereas pivot counts are deterministic.  The
  presolve speedup IS a timing gate, but on a same-run, same-machine
  ratio, which is far more stable than any absolute time.

mcs-bench-analysis-v2 (written by `mcs_bench analysis`)
  Compared against the committed BENCH_analysis.json baseline; fails when
    * any verdict count (NPS-schedulable, WP-failing, rescued by greedy,
      greedy rounds) differs from the baseline's, or
    * the B&B node or simplex pivot count grew by more than the allowed
      factor over the baseline's.
  Every MILP there is solved to proven optimality, so all of these counts
  are deterministic; the engine's cross-round reuse shows up in the work
  counts.  The wall time is reported, not gated, for the same reason as
  above.

Usage:
  tools/perf_check.py <fresh BENCH json> [<baseline BENCH json>]
"""

import json
import pathlib
import sys

# A fresh run may spend at most this factor times the baseline's warm
# pivots (solver bench) or B&B nodes and pivots (analysis bench) before CI
# fails (catches e.g. a warm path that silently starts falling back to
# cold solves everywhere).
MAX_PIVOT_GROWTH = 2.0

# The fresh run's warm-vs-cold pivot reduction must stay above this.
MIN_PIVOT_REDUCTION = 2.0

# The fresh run's presolve-on vs presolve-off wall-time ratio on the
# "plain, 2%gap, warm" strategy must stay above this.  Recalibrated with
# the sparse revised-simplex kernel: the dense-era baseline showed 1.8x
# because presolve's row/column removals saved expensive tableau pivots;
# sparse pivots are cheap enough that the same removals now leave this
# pair roughly wall-neutral (1.0-1.1x run to run; the alpha-priority
# production pair still shows ~1.3x).  The floor is therefore a
# regression backstop — presolve must never cost real wall time — while
# its functional value stays gated deterministically by the removal
# counts below.
MIN_PRESOLVE_SPEEDUP = 0.9

# The fresh run's sparse-vs-dense kernel wall-time ratio on the
# "plain, 2%gap, warm" strategy must stay above this.  The committed
# baseline shows >= 1.7x; the CI floor absorbs same-run ratio noise.
MIN_SPARSE_KERNEL_SPEEDUP = 1.5

# Relative tolerance for the prove-pair bound identity: both kernels prove
# optimality, so their mean bounds may differ only by accumulated
# round-off, far below this.
KERNEL_BOUND_RTOL = 1e-9

BASELINES = {
    "mcs-bench-solver-v1": "BENCH_solver.json",
    "mcs-bench-analysis-v2": "BENCH_analysis.json",
}


def load(path, schema=None):
    with open(path) as fh:
        data = json.load(fh)
    if data.get("schema") not in BASELINES:
        sys.exit(f"{path}: unexpected schema {data.get('schema')!r}")
    if schema is not None and data["schema"] != schema:
        sys.exit(f"{path}: schema {data['schema']!r}, expected {schema!r}")
    return data


def check_solver(fresh, baseline):
    fresh_warm = fresh["summary"]["warm_pivots_total"]
    base_warm = baseline["summary"]["warm_pivots_total"]
    reduction = fresh["summary"]["pivot_reduction"]

    print(f"warm pivots: fresh {fresh_warm} vs baseline {base_warm} "
          f"(x{fresh_warm / base_warm:.2f})")
    print(f"warm-vs-cold pivot reduction: {reduction:.2f}x "
          f"(floor {MIN_PIVOT_REDUCTION:.1f}x)")

    failures = []
    if fresh_warm > MAX_PIVOT_GROWTH * base_warm:
        failures.append(
            f"warm pivot count regressed more than {MAX_PIVOT_GROWTH:.1f}x "
            f"over the committed baseline ({fresh_warm} > "
            f"{MAX_PIVOT_GROWTH:.1f} * {base_warm})")
    if reduction < MIN_PIVOT_REDUCTION:
        failures.append(
            f"warm-vs-cold pivot reduction {reduction:.2f}x fell below the "
            f"required {MIN_PIVOT_REDUCTION:.1f}x")

    pre_speedup = fresh["summary"]["presolve_speedup"]
    pre_removed = (fresh["summary"]["presolve_rows_removed"]
                   + fresh["summary"]["presolve_cols_removed"])
    print(f"presolve speedup (same-run wall ratio): {pre_speedup:.2f}x "
          f"(floor {MIN_PRESOLVE_SPEEDUP:.1f}x), "
          f"{fresh['summary']['presolve_rows_removed']} rows / "
          f"{fresh['summary']['presolve_cols_removed']} cols removed")
    if pre_speedup < MIN_PRESOLVE_SPEEDUP:
        failures.append(
            f"presolve speedup {pre_speedup:.2f}x fell below the required "
            f"{MIN_PRESOLVE_SPEEDUP:.1f}x")
    if pre_removed == 0:
        failures.append(
            "presolve removed no rows and no columns on the bench corpus")

    kernel_speedup = fresh["summary"].get("sparse_kernel_speedup")
    if kernel_speedup is None:
        failures.append("summary is missing sparse_kernel_speedup "
                        "(bench predates the kernel axis?)")
    else:
        print(f"sparse kernel speedup (same-run wall ratio): "
              f"{kernel_speedup:.2f}x (floor {MIN_SPARSE_KERNEL_SPEEDUP:.1f}x)")
        if kernel_speedup < MIN_SPARSE_KERNEL_SPEEDUP:
            failures.append(
                f"sparse kernel speedup {kernel_speedup:.2f}x fell below "
                f"the required {MIN_SPARSE_KERNEL_SPEEDUP:.1f}x")

    bounds = {s["name"]: s["mean_bound"] for s in fresh["strategies"]}
    prove_sparse = bounds.get("alpha, prove, warm")
    prove_dense = bounds.get("alpha, prove, warm [dense]")
    if prove_sparse is None or prove_dense is None:
        failures.append("prove-pair strategies missing from the fresh run; "
                        "cannot check kernel bound identity")
    else:
        scale = max(1.0, abs(prove_sparse), abs(prove_dense))
        print(f"kernel bound identity (prove pair): sparse {prove_sparse} "
              f"vs dense {prove_dense}")
        if abs(prove_sparse - prove_dense) > KERNEL_BOUND_RTOL * scale:
            failures.append(
                f"kernels proved different optima: sparse {prove_sparse} "
                f"vs dense {prove_dense}")
    return failures


def check_analysis(fresh, baseline):
    print(f"wall: {fresh['wall_ms']} ms (baseline {baseline['wall_ms']} ms; "
          f"reported, not gated)")

    failures = []
    if fresh["sweep_point"] != baseline["sweep_point"]:
        failures.append(
            f"sweep point {fresh['sweep_point']} differs from the "
            f"baseline's {baseline['sweep_point']}")
    for key, base in baseline["verdicts"].items():
        got = fresh["verdicts"].get(key)
        print(f"{key}: fresh {got} vs baseline {base}")
        if got != base:
            failures.append(
                f"verdict count {key} changed: {got} != baseline {base}")
    for key, base in baseline["work"].items():
        got = fresh["work"][key]
        print(f"{key}: fresh {got} vs baseline {base} (x{got / base:.2f})")
        if got > MAX_PIVOT_GROWTH * base:
            failures.append(
                f"{key} grew more than {MAX_PIVOT_GROWTH:.1f}x over the "
                f"committed baseline ({got} > {MAX_PIVOT_GROWTH:.1f} * "
                f"{base})")
    return failures


def main(argv):
    if len(argv) not in (2, 3):
        sys.exit(__doc__)
    fresh = load(argv[1])
    schema = fresh["schema"]
    baseline_path = (
        argv[2]
        if len(argv) == 3
        else pathlib.Path(__file__).resolve().parent.parent
        / BASELINES[schema]
    )
    baseline = load(baseline_path, schema)

    if schema == "mcs-bench-solver-v1":
        failures = check_solver(fresh, baseline)
    else:
        failures = check_analysis(fresh, baseline)

    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    if failures:
        return 1
    print("perf check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
