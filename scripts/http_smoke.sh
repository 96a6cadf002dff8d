#!/usr/bin/env bash
# End-to-end smoke of the HTTP serving front-end: start `serve_cli serve`,
# drive query/batch/healthz/metrics over loopback with curl, then check a
# graceful SIGTERM drain (exit 0).
#
#   scripts/http_smoke.sh [build-dir]     (default: build)
#
# Environment: PORT (default 18080), LOOPS (default 2 — the server runs
# multi-reactor so the smoke covers the round-robin accept handoff and the
# per-loop /metrics series).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
PORT="${PORT:-18080}"
LOOPS="${LOOPS:-2}"
BIN="$BUILD_DIR/serve_cli"
BASE="http://127.0.0.1:$PORT"

if [[ ! -x "$BIN" ]]; then
  echo "http_smoke: $BIN not built" >&2
  exit 1
fi

# --hi=400 keeps on-demand atlas scans quick on the simulated machine.
"$BIN" serve --port="$PORT" --hi=400 --loops="$LOOPS" &
SRV=$!
trap 'kill -9 "$SRV" 2>/dev/null || true' EXIT

for _ in $(seq 100); do
  curl -sf "$BASE/healthz" >/dev/null 2>&1 && break
  sleep 0.1
done

[[ "$(curl -sf "$BASE/healthz")" == "ok" ]]

ANSWER="$(curl -sf -X POST --data-binary 'aatb,300,260,549' "$BASE/v1/query")"
echo "query  -> $ANSWER"
[[ "$ANSWER" == *,atlas ]]

BATCH="$(printf 'aatb,100,260,549\naatb,200,260,549\naatb,300,260,549\n' \
  | curl -sf -X POST --data-binary @- "$BASE/v1/batch")"
echo "batch  -> $(echo "$BATCH" | tr '\n' ' ')"
[[ "$(echo "$BATCH" | wc -l)" -eq 3 ]]

# A malformed body must answer 400, not kill the server.
CODE="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
  --data-binary 'aatb,not-a-size' "$BASE/v1/query")"
[[ "$CODE" == 400 ]]

METRICS="$(curl -sf "$BASE/metrics")"
# Here-strings, not `echo | grep -q`: under pipefail a grep that exits at
# an early match can SIGPIPE the echo and fail the smoke (exit 141).
grep -q 'lamb_http_requests_total' <<< "$METRICS"
grep -q 'lamb_selection_answers_total{source="atlas"}' <<< "$METRICS"
grep -q 'lamb_http_request_duration_seconds_bucket' <<< "$METRICS"
grep -q 'lamb_http_connections_active' <<< "$METRICS"
grep -q 'lamb_stage_seconds_bucket{stage="route"' <<< "$METRICS"
# The first query was cold: the routes, query_async and its worker each
# probed the LRU, and the service counts it as exactly one miss.
grep -qx 'lamb_selection_cache_misses_total 1' <<< "$METRICS"
# Multi-reactor series: the loop-count gauge matches --loops, and one
# lamb_net_loop_* series exists per loop (cardinality is re-checked by
# metrics_lint below).
grep -q "lamb_net_loops $LOOPS" <<< "$METRICS"
for ((i = 0; i < LOOPS; i++)); do
  grep -q "lamb_net_loop_requests_total{loop=\"$i\"}" <<< "$METRICS"
done

# Exposition lint: HELP/TYPE before every family, no duplicate series, and
# counters monotonic between two scrapes separated by more traffic.
SCRAPE_DIR="$(mktemp -d)"
trap 'kill -9 "$SRV" 2>/dev/null || true; rm -rf "$SCRAPE_DIR"' EXIT
echo "$METRICS" > "$SCRAPE_DIR/scrape1.txt"
curl -sf -X POST --data-binary 'aatb,220,260,549' "$BASE/v1/query" >/dev/null
curl -sf "$BASE/metrics" > "$SCRAPE_DIR/scrape2.txt"
scripts/metrics_lint.sh "$SCRAPE_DIR/scrape1.txt" "$SCRAPE_DIR/scrape2.txt"

# Graceful drain: SIGTERM must produce a clean exit 0 from run().
kill -TERM "$SRV"
wait "$SRV"
trap - EXIT
rm -rf "$SCRAPE_DIR"
echo "http smoke OK"
