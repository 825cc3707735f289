#!/usr/bin/env bash
# Environment handling of mcs_bench: MCS_THREADS=0 means all hardware
# threads, and a malformed MCS_THREADS / MCS_TASKSETS / MCS_SEED value is a
# usage error (exit 2) that names the variable instead of a silent default.
#
# Usage: tests/bench_env.sh <mcs_bench>
set -uo pipefail

BENCH=${1:?usage: bench_env.sh <mcs_bench>}
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# expect_rejected <variable> <value>
expect_rejected() {
  local out=$WORK/rejected-$1-$2
  env MCS_TASKSETS=1 MCS_TELEMETRY=0 "$1=$2" "$BENCH" fig2a \
    --out-dir="$out" > /dev/null 2> "$WORK/err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "$1='$2' exited $rc, expected 2"
  grep -qF -- "$1" "$WORK/err" ||
    fail "$1='$2' did not name the variable (stderr: $(cat "$WORK/err"))"
  [ ! -e "$out/fig2a.csv" ] || fail "$1='$2' ran the sweep anyway"
}

expect_rejected MCS_THREADS two
expect_rejected MCS_THREADS 2.5
expect_rejected MCS_TASKSETS 10x
expect_rejected MCS_TASKSETS 0
expect_rejected MCS_SEED 0x10

MCS_THREADS=0 MCS_TASKSETS=1 MCS_TELEMETRY=0 "$BENCH" fig2a \
  --out-dir="$WORK/zero" > /dev/null 2>&1
rc=$?
[ "$rc" -eq 0 ] || fail "MCS_THREADS=0 exited $rc, expected 0"
[ -s "$WORK/zero/fig2a.csv" ] || fail "MCS_THREADS=0 wrote no CSV"

if [ "$failures" -ne 0 ]; then
  echo "$failures failure(s)"
  exit 1
fi
echo "mcs_bench environment handling ok"
