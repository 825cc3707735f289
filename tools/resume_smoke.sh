#!/usr/bin/env bash
# Kill/resume smoke for the sweep work-queue engine.
#
# Runs a small registry sweep to completion (the reference), runs it again
# but SIGKILLs the process midway, finishes the killed run with --resume,
# and requires the resumed CSV to be byte-identical to the reference —
# the determinism contract of EXPERIMENTS.md enforced against a real
# process kill rather than the in-process crash emulation the unit tests
# use.  A second --resume must change nothing, and resuming from another
# sweep's log must fail with exit 2.
#
# Usage: tools/resume_smoke.sh <path to mcs_bench> [sweep] [kill-delay-s]
set -euo pipefail

MCS_BENCH=$(realpath "${1:?usage: resume_smoke.sh <path to mcs_bench> [sweep] [kill-delay-s]}")
SWEEP=${2:-fig2a}
KILL_DELAY=${3:-0.5}

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
mkdir -p "$WORK/ref" "$WORK/cut"

# Small enough to finish in seconds, large enough that the kill lands
# while units are still open.  Callers may override.
export MCS_TASKSETS=${MCS_TASKSETS:-16}

echo "== reference run (uninterrupted) =="
(cd "$WORK/ref" && "$MCS_BENCH" "$SWEEP" --threads=2)

echo "== killed run (SIGKILL after ${KILL_DELAY}s) =="
(cd "$WORK/cut" && exec "$MCS_BENCH" "$SWEEP" --threads=1) &
pid=$!
sleep "$KILL_DELAY"
if kill -9 "$pid" 2>/dev/null; then
  echo "killed pid $pid midway"
else
  echo "run finished before the kill landed (still a valid resume test)"
fi
wait "$pid" 2>/dev/null || true

# Whether or not the kill landed in time, keep the first half of the log
# and end it in the fragment a kill mid-write leaves: the resume then
# always re-runs units behind a torn line.
LOG="$WORK/cut/$SWEEP.jsonl"
touch "$LOG"
head -n $(( ($(wc -l < "$LOG") + 1) / 2 )) "$LOG" > "$WORK/kept.jsonl"
printf '%s' '{"point":0,"slot":1,"status":"ok","atte' >> "$WORK/kept.jsonl"
mv "$WORK/kept.jsonl" "$LOG"
echo "cut the log to $(wc -l < "$LOG") complete lines and a torn one"

echo "== resume =="
(cd "$WORK/cut" && "$MCS_BENCH" "$SWEEP" --resume --threads=2)

echo "== diff =="
diff "$WORK/ref/$SWEEP.csv" "$WORK/cut/$SWEEP.csv"

echo "== second resume (every unit already logged) =="
cp "$WORK/cut/$SWEEP.csv" "$WORK/first.csv"
(cd "$WORK/cut" && "$MCS_BENCH" "$SWEEP" --resume --threads=2)
cmp "$WORK/first.csv" "$WORK/cut/$SWEEP.csv"

echo "== resume against another sweep's log is refused =="
OTHER=fig2b
[ "$SWEEP" = fig2b ] && OTHER=fig2a
rc=0
"$MCS_BENCH" "$OTHER" --resume --log="$WORK/ref/$SWEEP.jsonl" \
  --out-dir="$WORK/other" 2> "$WORK/other.err" || rc=$?
cat "$WORK/other.err"
[ "$rc" -eq 2 ] && grep -q "different sweep" "$WORK/other.err" || {
  echo "expected exit 2 with a 'different sweep' message, got exit $rc"; exit 1; }
echo "resume smoke passed: CSV byte-identical after SIGKILL + --resume"
