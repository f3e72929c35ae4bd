#!/usr/bin/env bash
# serve-smoke.sh — end-to-end smoke of `mems serve` over real HTTP.
#
# Starts the daemon on an ephemeral port, then asserts the protocol's
# load-bearing promises with curl + jq:
#   1. a deck submission runs to completion and its streamed points
#      match `mems sweep --json` byte-for-byte;
#   2. results arrive as a chunked transfer-coded stream, and the
#      de-chunked body matches the CLI byte-for-byte;
#   3. the second identical submission hits the fingerprint cache
#      (cache.hit, parse_us == 0, warm checkout);
#   4. cancellation stops a running .MC batch short of completion;
#   5. /v1/metrics serves Prometheus text format whose counters
#      reflect the traffic above;
#   6. POST /v1/shutdown drains gracefully and the process exits 0;
#   7. a server SIGKILLed with --data-dir set, restarted on the same
#      directory, still serves the finished sweep's results
#      byte-for-byte and recovers the mid-flight batch as
#      failed/interrupted with its durable prefix intact.
#
# Usage: tools/serve-smoke.sh [path-to-mems-binary]
set -euo pipefail
cd "$(dirname "$0")/.."

MEMS=${1:-target/release/mems}
[ -x "$MEMS" ] || { echo "error: $MEMS not built (cargo build --release)" >&2; exit 1; }
command -v jq >/dev/null || { echo "error: jq is required" >&2; exit 1; }

WORK=$(mktemp -d)
SERVE_PID=
cleanup() {
  [ -n "$SERVE_PID" ] && kill "$SERVE_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$MEMS" serve --port 0 --workers 2 >"$WORK/serve.log" 2>&1 &
SERVE_PID=$!

# Wait for the bind line and extract the ephemeral port.
for _ in $(seq 1 100); do
  PORT=$(sed -n 's|.*listening on http://[0-9.]*:\([0-9]*\).*|\1|p' "$WORK/serve.log")
  [ -n "$PORT" ] && break
  sleep 0.1
done
[ -n "$PORT" ] || { echo "error: serve did not bind"; cat "$WORK/serve.log"; exit 1; }
BASE="http://127.0.0.1:$PORT"
echo "== mems serve up on $BASE"

wait_done() { # job-id -> final status document
  local id=$1 doc state
  for _ in $(seq 1 600); do
    doc=$(curl -sf "$BASE/v1/jobs/$id")
    state=$(jq -r .state <<<"$doc")
    if [ "$state" = done ] || [ "$state" = cancelled ]; then
      echo "$doc"
      return 0
    fi
    sleep 0.1
  done
  echo "error: job $id never finished: $doc" >&2
  return 1
}

echo "== 1. submit eletran deck (plain run) + resonator .STEP sweep"
ELETRAN=$(curl -sf -X POST --data-binary @examples/decks/eletran_transient.cir "$BASE/v1/jobs")
jq -e '.cache.hit == false' <<<"$ELETRAN" >/dev/null
wait_done "$(jq -r .id <<<"$ELETRAN")" | jq -e '.state == "done" and .completed == 1' >/dev/null

SWEEP1=$(curl -sf -X POST --data-binary @examples/decks/resonator_step.cir "$BASE/v1/jobs")
ID1=$(jq -r .id <<<"$SWEEP1")
wait_done "$ID1" | jq -e '.state == "done"' >/dev/null

echo "== 2. streamed results are chunked and match mems sweep --json byte-for-byte"
# The stream is chunked transfer-coded (curl de-chunks transparently).
curl -sfi "$BASE/v1/jobs/$ID1/results?from=0" -o "$WORK/results.http"
grep -qi '^transfer-encoding: chunked' "$WORK/results.http"
curl -sf "$BASE/v1/jobs/$ID1/results?from=0" | jq -c .points[] >"$WORK/served.jsonl"
"$MEMS" sweep examples/decks/resonator_step.cir --threads 2 --json - \
  | jq -c .points[] >"$WORK/cli.jsonl"
cmp "$WORK/served.jsonl" "$WORK/cli.jsonl"

echo "== 2b. second identical submission hits the fingerprint cache"
SWEEP2=$(curl -sf -X POST --data-binary @examples/decks/resonator_step.cir "$BASE/v1/jobs")
jq -e '.cache.hit == true and .timing.parse_us == 0' <<<"$SWEEP2" >/dev/null
DONE2=$(wait_done "$(jq -r .id <<<"$SWEEP2")")
jq -e '.cache.warm_checkout == true' <<<"$DONE2" >/dev/null
curl -sf "$BASE/v1/jobs/$(jq -r .id <<<"$SWEEP2")/results?from=0" \
  | jq -c .points[] | cmp - "$WORK/cli.jsonl"

echo "== 3. cancellation stops a running .MC batch"
cat >"$WORK/mc.cir" <<'EOF'
smoke mc resonator
.param k=200 m=1e-4 alpha=40e-3
Is 0 vel PWL(0 0 0.1m 1u)
Mm1 vel 0 {m}
Kk1 vel 0 {k}
Dd1 vel 0 {alpha}
.tran 0.02m 100m
.print tran v(vel)
.mc 400 seed=7 k tol=0.05 dist=gauss
EOF
MC=$(curl -sf -X POST --data-binary @"$WORK/mc.cir" "$BASE/v1/jobs")
MCID=$(jq -r .id <<<"$MC")
for _ in $(seq 1 300); do
  [ "$(curl -sf "$BASE/v1/jobs/$MCID" | jq .completed)" -gt 0 ] && break
  sleep 0.05
done
curl -sf -X DELETE "$BASE/v1/jobs/$MCID" >/dev/null
wait_done "$MCID" \
  | jq -e '.state == "cancelled" and .completed < 400 and (.completed + .skipped) == 400' >/dev/null

echo "== 4. /v1/metrics serves Prometheus text format with live counters"
curl -sfi "$BASE/v1/metrics" -o "$WORK/metrics.http"
grep -qi '^content-type: text/plain; version=0.0.4' "$WORK/metrics.http"
curl -sf "$BASE/v1/metrics" >"$WORK/metrics.txt"
metric() { # fully-labeled series name -> value
  awk -v s="$1" '$1 == s { print $2 }' "$WORK/metrics.txt"
}
grep -q '^# TYPE mems_serve_jobs_total counter' "$WORK/metrics.txt"
grep -q '^# TYPE mems_serve_chunk_seconds histogram' "$WORK/metrics.txt"
# 4 submissions: eletran, sweep ×2, the cancelled .MC batch.
[ "$(metric mems_serve_jobs_submitted_total)" = 4 ]
[ "$(metric 'mems_serve_jobs_total{state="done"}')" = 3 ]
[ "$(metric 'mems_serve_jobs_total{state="cancelled"}')" = 1 ]
[ "$(metric 'mems_serve_cache_events_total{event="hit"}')" = 1 ]
[ "$(metric 'mems_serve_cache_events_total{event="miss"}')" = 3 ]
[ "$(metric 'mems_serve_points_total{outcome="skipped"}')" -gt 0 ]
[ "$(metric mems_serve_chunk_seconds_count)" -gt 0 ]
# The solver rollups saw real factorizations.
awk '/^mems_serve_solver_factors_total/ { sum += $2 } END { exit !(sum > 0) }' "$WORK/metrics.txt"

echo "== 5. graceful shutdown drains"
curl -sf "$BASE/v1/health" | jq -e '.ok and .cache.hits >= 1' >/dev/null
curl -sf -X POST "$BASE/v1/shutdown" | jq -e .draining >/dev/null
wait "$SERVE_PID"
SERVE_PID=
grep -q "mems serve drained" "$WORK/serve.log"

echo "== 6. restart recovery: --data-dir survives SIGKILL"
# A fresh instance (fresh data-dir, fresh counters) so sections 1-5's
# exact metric assertions stay untouched.
DATA="$WORK/data"
start_durable() { # logfile -> sets SERVE_PID and BASE
  "$MEMS" serve --port 0 --workers 2 --data-dir "$DATA" >"$1" 2>&1 &
  SERVE_PID=$!
  local port=
  for _ in $(seq 1 100); do
    port=$(sed -n 's|.*listening on http://[0-9.]*:\([0-9]*\).*|\1|p' "$1")
    [ -n "$port" ] && break
    sleep 0.1
  done
  [ -n "$port" ] || { echo "error: durable serve did not bind"; cat "$1"; exit 1; }
  BASE="http://127.0.0.1:$port"
}
start_durable "$WORK/serve-durable.log"

# One sweep run to completion, one big .MC batch killed mid-flight.
DS=$(curl -sf -X POST --data-binary @examples/decks/resonator_step.cir "$BASE/v1/jobs")
DSID=$(jq -r .id <<<"$DS")
wait_done "$DSID" | jq -e '.state == "done"' >/dev/null
DMC=$(curl -sf -X POST --data-binary @"$WORK/mc.cir" "$BASE/v1/jobs")
DMCID=$(jq -r .id <<<"$DMC")
for _ in $(seq 1 300); do
  [ "$(curl -sf "$BASE/v1/jobs/$DMCID" | jq .completed)" -gt 0 ] && break
  sleep 0.05
done
kill -9 "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=

start_durable "$WORK/serve-recovered.log"
# The finished sweep is queryable from spill and its de-chunked
# results still match the CLI byte-for-byte.
curl -sf "$BASE/v1/jobs/$DSID" \
  | jq -e '.state == "done" and .stored == true and .completed == 5' >/dev/null
curl -sf "$BASE/v1/jobs/$DSID/results?from=0" \
  | jq -c .points[] | cmp - "$WORK/cli.jsonl"
# The killed-mid-flight batch recovered as failed/interrupted, its
# durably written prefix retrievable.
curl -sf "$BASE/v1/jobs/$DMCID" \
  | jq -e '.state == "failed" and .reason == "interrupted" and .completed >= 1' >/dev/null
curl -sf "$BASE/v1/jobs/$DMCID/results" | jq -e '.state == "failed"' >/dev/null
curl -sf "$BASE/v1/metrics" \
  | awk '$1 == "mems_serve_store_replayed_jobs_total" { ok = ($2 >= 2) } END { exit !ok }'
curl -sf "$BASE/v1/health" | jq -e '.store.enabled and (.store.degraded | not)' >/dev/null
curl -sf -X POST "$BASE/v1/shutdown" | jq -e .draining >/dev/null
wait "$SERVE_PID"
SERVE_PID=

echo "== serve smoke OK"
