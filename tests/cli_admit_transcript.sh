#!/usr/bin/env bash
# Pins the responses of an in-process admission session: replays
# tests/golden/cli/admit_session.script through `mcs_cli admit --script`
# and compares stdout with tests/golden/cli/admit_session.txt line by line,
# ignoring each verdict's `cached` flag (a cache change may turn a cold
# answer into a hit, never change the answer).  The script covers greedy
# admits settled in round 0 and after a promotion, `mode=wp`, `mark_ls`
# true then false, an explicit `mode=marked` analysis, remove and re-admit,
# and the `budget_ms:0` degraded path.
#
# Usage: tests/cli_admit_transcript.sh <mcs_cli> <source-dir>
set -uo pipefail

CLI=${1:?usage: cli_admit_transcript.sh <mcs_cli> <source-dir>}
SRC=${2:?usage: cli_admit_transcript.sh <mcs_cli> <source-dir>}
GOLDEN=$SRC/tests/golden/cli
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

"$CLI" admit --script="$GOLDEN/admit_session.script" > "$WORK/out"
rc=$?
if [ "$rc" -ne 0 ]; then
  echo "FAIL: mcs_cli admit --script exited $rc, expected 0"
  exit 1
fi

strip_cached() { sed -E 's/"cached":(true|false),//' "$1"; }

if ! diff <(strip_cached "$GOLDEN/admit_session.txt") \
          <(strip_cached "$WORK/out"); then
  echo "FAIL: admission transcript differs from the golden (cached ignored)"
  exit 1
fi
echo "admission transcript matches ($(wc -l < "$WORK/out") responses)"
