#!/usr/bin/env bash
# Smoke both halves of the PMU degradation contract (src/obs/pmu.hpp):
#
#   1. `serve_cli profile` runs to completion and prints the per-stage
#      attribution table (obs::stage_table) — with hardware columns where
#      the runner grants perf_event access, without them where it does
#      not — and keeps working under LAMB_PMU=off.
#   2. A LAMB_PMU=off server answers queries BYTE-IDENTICALLY to a default
#      server (counting must never change results), and its /metrics
#      scrape is lint-clean with `lamb_pmu_available 0` and no other
#      lamb_pmu_* series.
#
#   scripts/profile_smoke.sh [build-dir]     (default: build)
#
# Environment: PORT (default 18090; PORT+1 is also used).
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
PORT="${PORT:-18090}"
BIN="$BUILD_DIR/serve_cli"

if [[ ! -x "$BIN" ]]; then
  echo "profile_smoke: $BIN not built" >&2
  exit 1
fi

TMP="$(mktemp -d)"
SRV=""
cleanup() {
  [[ -n "$SRV" ]] && kill -9 "$SRV" 2>/dev/null || true
  rm -rf "$TMP"
}
trap cleanup EXIT

# ---- 1. the profile subcommand, on whatever the runner provides ----------
"$BIN" profile --seed=7 > "$TMP/profile.txt"
grep -q '^pmu: ' "$TMP/profile.txt"
grep -q '^stage ' "$TMP/profile.txt"
grep -q '^lru ' "$TMP/profile.txt"
echo "profile_smoke: profile subcommand OK ($(grep '^pmu: ' "$TMP/profile.txt"))"

LAMB_PMU=off "$BIN" profile --seed=7 > "$TMP/profile_off.txt"
grep -q 'LAMB_PMU=off' "$TMP/profile_off.txt"
echo "profile_smoke: profile under LAMB_PMU=off OK"

# ---- 2. LAMB_PMU=off server: identical answers, clean degraded scrape ----
QUERIES=$'aatb,100,260,549\naatb,200,260,549\naatb,300,260,549\n'

serve_and_query() {
  local port="$1" out="$2"
  for _ in $(seq 100); do
    curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1 && break
    sleep 0.1
  done
  printf '%s' "$QUERIES" \
    | curl -sf -X POST --data-binary @- "http://127.0.0.1:$port/v1/batch" \
    > "$out"
}

"$BIN" serve --port="$PORT" --hi=400 &
SRV=$!
serve_and_query "$PORT" "$TMP/answers_default.txt"
kill -TERM "$SRV"
wait "$SRV"
SRV=""

LAMB_PMU=off "$BIN" serve --port="$((PORT + 1))" --hi=400 &
SRV=$!
serve_and_query "$((PORT + 1))" "$TMP/answers_off.txt"
curl -sf "http://127.0.0.1:$((PORT + 1))/metrics" > "$TMP/scrape_off.txt"
kill -TERM "$SRV"
wait "$SRV"
SRV=""

cmp "$TMP/answers_default.txt" "$TMP/answers_off.txt"
echo "profile_smoke: answers byte-identical with LAMB_PMU=off"

grep -q '^lamb_pmu_available 0$' "$TMP/scrape_off.txt"
if grep '^lamb_pmu_' "$TMP/scrape_off.txt" | grep -qv '^lamb_pmu_available '; then
  echo "profile_smoke: LAMB_PMU=off scrape leaks lamb_pmu_* series" >&2
  exit 1
fi
scripts/metrics_lint.sh "$TMP/scrape_off.txt"
echo "profile smoke OK"
