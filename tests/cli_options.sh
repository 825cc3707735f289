#!/usr/bin/env bash
# Option handling of mcs_cli: an option a command does not accept is a
# usage error that names the key, and --telemetry works for `admit`.
#
# Usage: tests/cli_options.sh <mcs_cli> <source-dir>
set -uo pipefail

CLI=${1:?usage: cli_options.sh <mcs_cli> <source-dir>}
SRC=${2:?usage: cli_options.sh <mcs_cli> <source-dir>}
WL=$SRC/workloads/quickstart.wl
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
failures=0

fail() {
  echo "FAIL: $*"
  failures=$((failures + 1))
}

# expect_usage_error <stderr pattern> <mcs_cli args...>
expect_usage_error() {
  local pattern=$1
  shift
  "$CLI" "$@" < /dev/null > "$WORK/out" 2> "$WORK/err"
  local rc=$?
  [ "$rc" -eq 2 ] || fail "mcs_cli $* exited $rc, expected 2"
  grep -qF -- "$pattern" "$WORK/err" ||
    fail "mcs_cli $* did not print '$pattern' (stderr: $(cat "$WORK/err"))"
  [ ! -s "$WORK/out" ] || fail "mcs_cli $* ran the command anyway"
}

expect_usage_error "unknown option '--aproach'" analyze "$WL" --aproach=wp
expect_usage_error "unknown option '--threads'" analyze "$WL" --threads=8
expect_usage_error "unknown option '--opa'" simulate "$WL" --opa
expect_usage_error "unknown option '--approach'" admit --approach=wp
expect_usage_error "--telemetry cannot be used with --socket" \
  admit --socket="$WORK/none.sock" --telemetry="$WORK/t.json"

# Accepted options still run: analyze exits 0 or 1 (the verdict).
"$CLI" analyze "$WL" --approach=wp --opa > /dev/null 2>&1
rc=$?
[ "$rc" -le 1 ] || fail "analyze --approach=wp --opa exited $rc"

# An in-process admit session writes its telemetry snapshot.
printf '%s\n' \
  '{"id":1,"op":"admit","core":"c0","task":{"name":"control","exec":300,"copy_in":60,"copy_out":60,"period":2000,"deadline":1700,"prio":0}}' \
  '{"id":2,"op":"admit","core":"c0","task":{"name":"vision","exec":900,"copy_in":350,"copy_out":350,"period":5000,"deadline":5000,"prio":1}}' \
  > "$WORK/session.jsonl"
"$CLI" admit --script="$WORK/session.jsonl" --telemetry="$WORK/admit.json" \
  > /dev/null 2>&1
rc=$?
[ "$rc" -le 1 ] || fail "admit --script --telemetry exited $rc"
grep -q '"milp.solves"' "$WORK/admit.json" 2> /dev/null ||
  fail "admit --telemetry wrote no milp.solves counter"

[ "$failures" -eq 0 ] || exit 1
echo "cli option checks passed"
