#!/usr/bin/env bash
# Kill/restart smoke for the admission-control service (docs/SERVICE.md).
#
# Starts mcs_serve on a Unix socket with a JSONL request log, replays a
# scripted admission session through mcs_cli admit, SIGKILLs the server
# mid-stream, tears the log's last line the way a kill mid-write would,
# restarts the server on the same log, finishes the session, and then
# requires (a) the whole log to parse — the restart cut the torn line off
# before appending — and (b) every logged non-degraded verdict to re-derive
# identically under `mcs_cli admit --verify-log`.  Last, one in-process
# scripted session must write a --telemetry snapshot holding milp.solves.
# The service-layer counterpart of tools/resume_smoke.sh.
#
# Usage: tools/serve_smoke.sh <build-dir>
set -uo pipefail

BUILD=${1:?usage: serve_smoke.sh <build-dir>}
SERVE=$(realpath "$BUILD/tools/mcs_serve")
CLI=$(realpath "$BUILD/tools/mcs_cli")

WORK=$(mktemp -d)
trap 'kill -9 "$server_pid" 2>/dev/null; rm -rf "$WORK"' EXIT
SOCK=$WORK/svc.sock
LOG=$WORK/svc.jsonl
server_pid=

start_server() {
  rm -f "$SOCK"  # a SIGKILLed server leaves a stale socket file behind
  "$SERVE" --socket="$SOCK" --no-stdio --log="$LOG" --threads=2 &
  server_pid=$!
  for _ in $(seq 1 100); do
    [ -S "$SOCK" ] && return 0
    kill -0 "$server_pid" 2>/dev/null || { echo "server died on startup"; exit 1; }
    sleep 0.05
  done
  echo "server socket never appeared"
  exit 1
}

cat > "$WORK/session1.jsonl" <<'EOF'
{"id":1,"op":"admit","core":"c0","task":{"name":"control","exec":300,"copy_in":60,"copy_out":60,"period":2000,"deadline":1700,"prio":0}}
{"id":2,"op":"admit","core":"c0","task":{"name":"vision","exec":900,"copy_in":350,"copy_out":350,"period":5000,"deadline":5000,"prio":1}}
{"id":3,"op":"analyze","core":"c0"}
{"id":4,"op":"mark_ls","core":"c0","name":"vision","ls":true}
EOF

cat > "$WORK/session2.jsonl" <<'EOF'
{"id":5,"op":"admit","core":"c0","task":{"name":"logging","exec":600,"copy_in":150,"copy_out":150,"period":10000,"deadline":10000,"prio":2}}
{"id":6,"op":"analyze","core":"c0"}
{"id":7,"op":"status"}
EOF

echo "== session 1 =="
start_server
"$CLI" admit --socket="$SOCK" --script="$WORK/session1.jsonl" || {
  echo "session 1 failed"; exit 1; }

echo "== SIGKILL mid-stream =="
# Stream a request and kill the server while the session is open: the log
# may gain at most one torn trailing line.
{ printf '%s\n' '{"id":90,"op":"analyze","core":"c0"}'; sleep 1; } | \
  "$CLI" admit --socket="$SOCK" &
streamer=$!
sleep 0.3
kill -9 "$server_pid"
wait "$streamer" 2>/dev/null || true
wait "$server_pid" 2>/dev/null || true
echo "killed server pid $server_pid"
# A kill mid-write leaves an unterminated fragment; make sure there is one.
printf '%s' '{"seq":99,"request":"{\"op' >> "$LOG"

echo "== restart on the same log =="
start_server
"$CLI" admit --socket="$SOCK" --script="$WORK/session2.jsonl" || {
  echo "session 2 failed"; exit 1; }

printf '%s\n' '{"op":"shutdown"}' | "$CLI" admit --socket="$SOCK" || true
wait "$server_pid" 2>/dev/null || true
server_pid=

echo "== verify log replays =="
records=$(grep -c '"request"' "$LOG" || true)
echo "log holds ${records:-0} request records"
"$CLI" admit --verify-log="$LOG" || { echo "verify-log failed"; exit 1; }

echo "== in-process session with --telemetry =="
"$CLI" admit --script="$WORK/session1.jsonl" \
  --telemetry="$WORK/admit.telemetry.json" > /dev/null || {
  echo "in-process session failed"; exit 1; }
grep -q '"milp.solves"' "$WORK/admit.telemetry.json" || {
  echo "admit --telemetry wrote no milp.solves counter"; exit 1; }
echo "serve smoke passed: log tail parseable, verdicts re-derived"
