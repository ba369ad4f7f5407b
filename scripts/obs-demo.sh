#!/bin/sh
# obs-demo.sh — a curl session against an ephemeral whatifd showing the
# continuous-observability layer: the /metrics/history time-series ring
# filling while queries run (cache hit ratio climbing as the result
# cache warms, scan amplification appearing), a slow query's retained
# span tree fetched back by the X-Trace-Id the response carried, and
# the structured lifecycle event log. It exits non-zero when a check
# on what the daemon served fails. Run via `make obs-demo`; needs curl
# and jq on PATH.
set -eu

PORT="${OBS_DEMO_PORT:-18081}"
BASE="http://127.0.0.1:$PORT"
BIN="${TMPDIR:-/tmp}/whatifd.obsdemo.$$"
DATA_DIR=$(mktemp -d "${TMPDIR:-/tmp}/whatifd.obsdemo.data.XXXXXX")

say() { printf '\n== %s\n' "$*"; }

# check DESC JQ-ARGS... runs jq -e over the JSON on stdin and fails the
# demo unless the filter yields true.
check() {
    desc=$1
    shift
    if jq -e "$@" >/dev/null; then
        echo "check ok: $desc"
    else
        echo "obs-demo: check failed: $desc" >&2
        exit 1
    fi
}

# Cleanup runs on every exit path so a half-finished demo never leaves
# a stray daemon, a built binary, or the data directory behind.
PID=""
cleanup() {
    if [ -n "$PID" ]; then
        kill "$PID" 2>/dev/null || true
        wait "$PID" 2>/dev/null || true
    fi
    rm -f "$BIN"
    rm -rf "$DATA_DIR"
}
trap cleanup EXIT INT TERM

go build -o "$BIN" ./cmd/whatifd

# Fast cadence (250ms samples) so a short demo spans many intervals;
# slowlog threshold at 1µs so every engine-evaluated query counts as
# slow and retains its trace (0 would mean "use the 250ms default").
"$BIN" -paper -addr "127.0.0.1:$PORT" -data-dir "$DATA_DIR" \
    -obs-interval 250ms -slowlog 0.001 &
PID=$!

i=0
until curl -fsS "$BASE/healthz" >/dev/null 2>&1; do
    i=$((i + 1))
    [ "$i" -lt 100 ] || { echo "obs-demo: whatifd did not start" >&2; exit 1; }
    sleep 0.1
done

# query MONTH prints a what-if perspective query against the paper's
# Fig. 1/2 warehouse, taking MONTH as the perspective; distinct months
# are distinct result-cache keys, repeats are hits, and the perspective
# scan is what drives cells_scanned (and so scan amplification).
query() {
    jq -n --arg q "WITH PERSPECTIVE {($1)} FOR Organization DYNAMIC FORWARD VISUAL SELECT {Descendants([Time], 1, SELF_AND_AFTER)} ON COLUMNS, {[PTE].Children} ON ROWS FROM Warehouse WHERE ([Location].[NY], [Measures].[Salary])" '{query: $q}'
}

say "phase 1: all-miss traffic (eight distinct perspectives, each scans the cube)"
for m in Jan Feb Mar Apr May Jun Jul Aug; do
    curl -fsS -X POST "$BASE/query" -d "$(query "$m")" -o /dev/null
    sleep 0.1
done

say "phase 2: repeat traffic (same eight perspectives — the result cache answers)"
for m in Jan Feb Mar Apr May Jun Jul Aug; do
    curl -fsS -X POST "$BASE/query" -d "$(query "$m")" -o /dev/null
    sleep 0.1
done
sleep 0.3 # let the collector take one more sample

say "metrics history: hit ratio climbs, scan amplification fades as hits take over"
curl -fsS "$BASE/metrics/history" | jq '{interval_ms, total, series: [
    .samples[] | select(.queries > 0) |
    {queries, qps, cache_hit_ratio, scan_amplification, p95_ms}]}'
curl -fsS "$BASE/metrics/history" | check "the history holds a sample with queries > 0" \
    'any(.samples[]; .queries > 0)'

say "a fresh query's response carries its retained trace id"
TID=$(curl -fsS -X POST "$BASE/query" -d "$(query Sep)" \
    -o /dev/null -D - | tr -d '\r' | awk -F': ' 'tolower($1)=="x-trace-id"{print $2}')
echo "trace id: $TID"
[ -n "$TID" ] || { echo "obs-demo: check failed: the slow query carried no X-Trace-Id" >&2; exit 1; }

say "fetch the span tree back at /debug/trace/$TID"
curl -fsS "$BASE/debug/trace/$TID" | jq '{id, reason, query, latency_ms, spans: (.spans | length)}'
curl -fsS "$BASE/debug/trace/$TID" | jq -r .rendered
curl -fsS "$BASE/debug/trace/$TID" | check "the trace was retained as slow" '.reason == "slow"'

say "the slowlog entry points at the same trace"
curl -fsS "$BASE/debug/slowlog" | jq '.queries[0] | {query, latency_ms, trace_id}'
curl -fsS "$BASE/debug/slowlog" | check "the newest slowlog entry is trace $TID" \
    --arg tid "$TID" '.queries[0].trace_id == $tid'

say "retained-trace ring (newest first)"
curl -fsS "$BASE/debug/trace" | jq '{stats, newest: .traces[0]}'

say "structured lifecycle events (restore, listener, ...)"
curl -fsS "$BASE/debug/events" | jq '{total, recent: [.events[] | {type, fields}]}'

say "done — try 'go run ./cmd/whatif -top -addr $BASE' against a live daemon"
