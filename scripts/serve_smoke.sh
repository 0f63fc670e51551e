#!/usr/bin/env bash
# serve_smoke.sh — end-to-end smoke of the resident sampling daemon.
#
# Starts `strata serve`, fires K concurrent identical SSD queries, and
# asserts the service contract of DESIGN.md §12:
#   1. under the strict window (-adaptive-window=false) the queries coalesce
#      (coalesced counter > 0, exactly one engine pass);
#   2. every client's answer is identical;
#   3. the daemon's answer is byte-identical to a one-shot `strata sample`
#      run with the same population, seed, slaves and layout;
#   4. SIGTERM drains gracefully;
#   5. with default flags (work-conserving window) the first query fires
#      alone and the rest ride the batch behind it: at most 2 passes, every
#      answer still byte-identical to `strata sample`;
#   6. `strata loadgen -addr` drives that same daemon: 200 ok, 0 failed, and
#      its report carries the pass attribution and a 10-point QPS timeline.
set -euo pipefail
cd "$(dirname "$0")/.."

POP=20000
SEED=1
SLAVES=4
QUERY='nop >= 100 : 5 ; nop < 100 : 10'
K=6

tmp="$(mktemp -d)"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$tmp"' EXIT

echo "== build"
go build -o "$tmp/strata" ./cmd/strata

# start_daemon FLAGS...: starts `strata serve` with the shared population
# flags plus FLAGS, and sets SERVE_PID and base once /healthz answers.
start_daemon() {
  : >"$tmp/serve.out"
  "$tmp/strata" serve -addr localhost:0 -n "$POP" -seed "$SEED" -slaves "$SLAVES" \
    -window 300ms "$@" >"$tmp/serve.out" 2>"$tmp/serve.err" &
  SERVE_PID=$!
  base=""
  for _ in $(seq 1 100); do
    base="$(sed -n 's|.*on http://\([^ ]*\) .*|\1|p' "$tmp/serve.out" | head -1)"
    [ -n "$base" ] && curl -sf "http://$base/healthz" >/dev/null 2>&1 && break
    kill -0 "$SERVE_PID" 2>/dev/null || { cat "$tmp/serve.err"; echo "FAIL: daemon died"; exit 1; }
    sleep 0.1
  done
  [ -n "$base" ] || { echo "FAIL: daemon never came up"; cat "$tmp/serve.err"; exit 1; }
  echo "daemon at $base"
}

# fire_identical PREFIX: K concurrent identical queries, answers in PREFIX.<i>.json.
fire_identical() {
  local pids=()
  for i in $(seq 1 "$K"); do
    curl -sf "http://$base/v1/sample" \
      -d "{\"query\": \"$QUERY\", \"seed\": $SEED}" >"$1.$i.json" &
    pids+=("$!")
  done
  for p in "${pids[@]}"; do wait "$p"; done
  kill -0 "$SERVE_PID" 2>/dev/null || { echo "FAIL: daemon died under load"; exit 1; }
}

echo "== start daemon (strict window: the one-pass / single-flight contract)"
start_daemon -adaptive-window=false

echo "== fire $K concurrent identical queries"
fire_identical "$tmp/resp"

echo "== check coalescing via /v1/stats"
curl -sf "http://$base/v1/stats" | tee "$tmp/stats.json"
python3 - "$tmp/stats.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
assert s["passes"] == 1, f"want exactly 1 engine pass, got {s['passes']}"
assert s["coalesced"] > 0, f"coalescing counter is zero: {s}"
print(f"ok: 1 pass, {s['coalesced']} coalesced, {s['single_flight']} single-flight, "
      f"{s['cache_hits']} cache hits for {s['queries']} queries")
PY

echo "== check all $K clients got identical answers"
python3 - "$tmp" "$K" <<'PY'
import json, sys
tmp, k = sys.argv[1], int(sys.argv[2])
answers = []
for i in range(1, k + 1):
    r = json.load(open(f"{tmp}/resp.{i}.json"))
    answers.append([st["individuals"] for st in r["strata"]])
assert all(a == answers[0] for a in answers), "clients disagree on the answer"
print("ok: all clients identical")
PY

echo "== check byte-identity with one-shot strata sample"
"$tmp/strata" sample -n "$POP" -seed "$SEED" -slaves "$SLAVES" -query "$QUERY" \
  >"$tmp/sample.out"
# check_cli_identity PREFIX: every PREFIX.<i>.json equals the CLI answer.
check_cli_identity() {
  python3 - "$tmp/sample.out" "$1" "$K" <<'PY'
import json, sys
sample, prefix, k = sys.argv[1], sys.argv[2], int(sys.argv[3])
# `strata sample` prints each sampled individual as a two-space-indented line.
cli = [l.strip() for l in open(sample) if l.startswith("  ")]
for i in range(1, k + 1):
    r = json.load(open(f"{prefix}.{i}.json"))
    daemon = [ind for st in r["strata"] for ind in st["individuals"]]
    assert cli == daemon, (
        f"client {i}: daemon answer differs from strata sample:\ncli    {cli}\ndaemon {daemon}")
print(f"ok: {k} answers byte-identical with strata sample ({len(cli)} individuals)")
PY
}
check_cli_identity "$tmp/resp"

echo "== graceful drain on SIGTERM"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero on SIGTERM"; exit 1; }
grep -q '^drained:' "$tmp/serve.out" || { echo "FAIL: no drain summary"; cat "$tmp/serve.out"; exit 1; }
grep '^drained:' "$tmp/serve.out"

echo "== default flags: $K concurrent identical queries, work-conserving window"
start_daemon
fire_identical "$tmp/wc"
curl -sf "http://$base/v1/stats" >"$tmp/wc.stats.json"
python3 - "$tmp/wc.stats.json" <<'PY'
import json, sys
s = json.load(open(sys.argv[1]))
# The first query finds the daemon idle and fires alone; the others queue
# behind its pass (or hit the cache once it lands) — never one pass each.
assert 1 <= s["passes"] <= 2, f"want at most 2 engine passes, got {s['passes']}"
print(f"ok: {s['passes']} passes, {s.get('adaptive_fires', 0)} early fires, "
      f"{s['cache_hits']} cache hits for {s['queries']} queries")
PY
check_cli_identity "$tmp/wc"

echo "== loadgen -addr against the default-flags daemon (the load driver runs and its report is whole)"
# No floor: throughput is measured and gated by bench/ (adhoc_1e5). This
# checks that the driver completes against the daemon and that the report
# carries the pass-attribution block and the QPS timeline.
"$tmp/strata" loadgen -addr "$base" -seed "$SEED" \
  -clients 8 -requests 200 -json "$tmp/loadgen.json" >"$tmp/loadgen.out"
python3 - "$tmp/loadgen.json" <<'PY'
import json, sys
r = json.load(open(sys.argv[1]))["batched"]
assert r["ok"] == 200 and r["failed"] == 0, f"want 200 ok / 0 failed, got {r['ok']} / {r['failed']}"
assert r["daemon_stats"].get("latency_attribution"), "no pass attribution in report"
assert len(r.get("qps_timeline", [])) == 10, "missing QPS timeline"
print(f"ok: {r['ok']} requests answered, attribution + timeline present")
PY

kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: default-flag daemon exited non-zero on SIGTERM"; exit 1; }

echo "PASS: serve smoke"
