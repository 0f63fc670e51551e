#!/usr/bin/env bash
# live_churn.sh — end-to-end smoke of the live mutation path (DESIGN.md §14).
#
# Starts `strata serve -live`, registers a standing query, drives mixed
# query/mutation churn with `strata loadgen -mutate`, and asserts:
#   1. the subscription received pushes (long-poll observes a version > 0);
#   2. a warm /v1/sample answer rides the reservoirs ("live": true, no pass);
#   3. staleness never exceeded the configured bound;
#   4. the churn is visible (mutation seq advanced) and reached the bound:
#      at least one stratum repair ran before the warm read of (2);
#   5. the result cache holds one epoch: after rounds of cacheable samples
#      between mutation batches, /v1/stats cache_entries is at most the
#      distinct queries sent since the last mutation.
#
# The whole sequence runs twice: on an in-process daemon, then on one whose
# passes ship to two tcp workers (`strata -backend tcp -workers 2 serve
# -live`). Both keep the same resident layout, so registration and repairs
# classify from the column mirror on either, and every assertion holds on both.
set -euo pipefail
cd "$(dirname "$0")/.."

POP=20000
SEED=1
BOUND=16
QUERY='nop >= 100 : 5 ; nop < 100 : 10'

tmp="$(mktemp -d)"
SERVE_PID=""
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$tmp"' EXIT

echo "== build"
go build -o "$tmp/strata" ./cmd/strata

# churn runs the sequence against a fresh daemon started with the global
# flags it is given (backend selection goes before the subcommand). Its body
# is not indented: the Python heredocs inside must start at column 0.
churn() {
echo "== start live daemon${*:+ $*} (staleness bound $BOUND)"
"$tmp/strata" "$@" serve -addr localhost:0 -n "$POP" -seed "$SEED" \
  -live -staleness "$BOUND" -window 2ms >"$tmp/serve.out" 2>"$tmp/serve.err" &
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

echo "== subscribe a standing query (push every 5 mutations)"
curl -sf "http://$base/v1/subscribe" \
  -d "{\"query\": \"$QUERY\", \"seed\": $SEED, \"every_mutations\": 5}" \
  | tee "$tmp/sub.json"
echo
SUB="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["subscription"])' "$tmp/sub.json")"

echo "== drive mixed churn (20% mutation batches)"
"$tmp/strata" loadgen -addr "$base" -clients 8 -requests 200 -mutate 0.2 \
  -mutate-batch 8 -n "$POP" -seed "$SEED" >"$tmp/loadgen.out"
grep 'mutations:' "$tmp/loadgen.out"

echo "== subscription observed pushes"
curl -sf "http://$base/v1/next?id=$SUB&after=0&timeout_ms=5000" >"$tmp/push.json"
python3 - "$tmp/push.json" <<'PY'
import json, sys
p = json.load(open(sys.argv[1]))
assert p["version"] > 0, f"push carries no mutations: {p}"
assert p["strata"], "push has no strata"
print(f"ok: push seq {p['seq']}, query version {p['version']}, mutation seq {p['mutation_seq']}")
PY

echo "== warm standing-query read, staleness under bound"
curl -sf "http://$base/v1/sample" \
  -d "{\"query\": \"$QUERY\", \"seed\": $SEED}" >"$tmp/warm.json"
curl -sf "http://$base/v1/stats" >"$tmp/stats.json"
python3 - "$tmp/warm.json" "$tmp/stats.json" "$BOUND" <<'PY'
import json, sys
warm = json.load(open(sys.argv[1]))
stats = json.load(open(sys.argv[2]))
bound = int(sys.argv[3])
assert warm.get("live"), f"standing query not answered warm: {warm.keys()}"
live = stats["live"]
assert live["max_staleness"] <= bound, \
    f"staleness {live['max_staleness']} exceeded bound {bound}"
assert live["mutation_seq"] > 0, "no mutations applied"
assert stats["live_hits"] > 0, "warm reads not counted"
assert live["repairs"] > 0, \
    f"no stratum repair ran at bound {bound}: the warm read followed none"
muts = live["inserts"] + live["deletes"] + live["updates"]
print(f"ok: live=true, {stats['live_hits']} warm hits, {muts} mutations, "
      f"{live['repairs']} repairs, max staleness {live['max_staleness']} <= {bound}")
PY

echo "== cacheable samples between mutation batches"
# Ad-hoc queries no subscription matches, so each one is answered by a pass
# (or the cache), never warm. Each round inserts a fresh member and sends a
# repeat of every query: the repeat must be a cache hit.
ADHOC=('nop >= 200 : 4' 'ayp >= 2 : 6 ; ayp < 2 : 2' 'cc < 50 : 3')
hits=0
for round in 1 2 3; do
  curl -sf "http://$base/v1/mutate" -d "{\"mutations\": [{\"op\": \"insert\", \"id\": $((9000000 + round)),
    \"attrs\": [150, 3, 2, 1999, 2011, 40, 9, 5]}]}" >/dev/null
  for q in "${ADHOC[@]}" "${ADHOC[@]}"; do
    curl -sf "http://$base/v1/sample" -d "{\"query\": \"$q\", \"seed\": $round}" >"$tmp/adhoc.json"
    if python3 -c 'import json,sys; sys.exit(0 if json.load(open(sys.argv[1]))["cached"] else 1)' "$tmp/adhoc.json"; then
      hits=$((hits + 1))
    fi
  done
done
curl -sf "http://$base/v1/stats" >"$tmp/stats.json"
python3 - "$tmp/stats.json" "${#ADHOC[@]}" "$hits" <<'PY'
import json, sys
stats = json.load(open(sys.argv[1]))
distinct, hits = int(sys.argv[2]), int(sys.argv[3])
entries = stats["cache_entries"]
assert hits == 3 * distinct, f"{hits} cache hits, want {3 * distinct}: repeats inside a round must hit"
assert entries <= distinct, \
    f"cache holds {entries} answers, only {distinct} distinct queries were sent since the last mutation"
print(f"ok: {entries} cache entries <= {distinct} queries since the last mutation, "
      f"{stats.get('cache_purged_entries', 0)} dropped by epoch moves")
PY

echo "== graceful drain"
kill -TERM "$SERVE_PID"
wait "$SERVE_PID" || { echo "FAIL: daemon exited non-zero on SIGTERM"; exit 1; }
SERVE_PID=""
}

churn
churn -backend tcp -workers 2

echo "PASS: live churn smoke (inproc and tcp)"
