#!/usr/bin/env bash
# Benchmark-regression smoke: run the allocation-tracked engine and shuffle
# benchmarks (a combining and a forwarding stage: the engine has one map
# path, and these run it) once and fail if any benchmark's allocs/op — or, where the
# baseline lists a third column, its B/op — regressed more than 10% against
# scripts/bench_baseline.txt.
#
# allocs/op is the one benchmark statistic that is deterministic enough to
# gate CI on everywhere: ns/op on shared runners is noise, but the engine's
# allocation counts are exact for a fixed workload. B/op is gated for the
# daemon's warm pass (BenchmarkServePass) and one of its map tasks
# (BenchmarkFusedMapSplit, below): the fused map stage holds
# that pass at ≈ 0.4 MB where the emission stream it replaced cost ≈ 30 MB in
# barely more allocations, so bytes, not counts, are what a regression there
# would move. The classification kernel under that pass
# (BenchmarkClassifyColumns: the narrow, wide and Large cell grids) is gated at
# 0 allocs/op: its scratch is the caller's. BenchmarkClassifyColumns/build,
# NewClassifier for the nine Large queries, is gated at its count because a
# classifier is rebuilt per job: ≈ 66 allocations a query, where the DNF it
# replaced made 16 000. BenchmarkValidate (one Large query, one wide template)
# is the same lowering plus its overlap sweep, which the daemon runs on every
# request; the pairwise DNF check it replaced made 4.0 M for Large. One map
# task of that pass (BenchmarkFusedMapSplit) is gated at the one allocation
# per emitted key it needs, the sample: its match lists live in the scan pool,
# so a list reallocated per pass reads as twenty more per key. Its B/op is
# gated too: a sample is 8-byte row references, so tuples copied into it
# again read as five times the bytes in the same allocations.
# The engine job with a JSON-lines tracer attached (BenchmarkEngineTraced) is
# gated because a traced run assembles spans per task: one assembled per record
# reads as 32 000 more allocations, which the wall-clock ratio this line
# replaced could not tell from a busy runner.
# A daemon's intake of a 10⁵-row population (BenchmarkNewPopulation: the
# contiguous cut plus live.NewPopulation, which keeps the column mirror) is gated on
# B/op: the cut shares the relation's rows, the duplicate check is one pass
# over IDs that ascend, and the id index waits for the first mutation, so
# splits copied at load, a sorted copy of the IDs or an index built eagerly
# read as megabytes more.
# Generating that population (BenchmarkPopulation in internal/gen) is gated
# on allocs/op and B/op: the relation is allocated once at its final size,
# every tuple's attributes and name are cut from one allocation each, and IDs
# that ascend need no hash set, so ≈ 30 allocations hold 10⁵ rows. A per-row
# allocation coming back reads as hundreds of thousands of allocations, and a
# hash set or the growth copies of an unsized tuple array as ≈ 25 MB more.
# It runs at -cpu=4 whatever the runner's core count: the generator's
# transform fans out over GOMAXPROCS goroutines, and each one the runtime has
# no free goroutine for costs an allocation, so the count would otherwise
# follow the runner. At four Ps it reads 24–27 on a two-core host: 24 at any
# width, plus one for each of the three helper goroutines allocated afresh.
# The line stays at 31, the count before the fan-out; Population also
# stopped building its eight attribute laws twice, which was 9 of the 31.
# One standing query's stratum repair at 10⁵ rows (BenchmarkLiveRepair: 8
# contiguous splits classified from the column mirror, a two- and a
# four-stratum query) is gated on B/op: the repair streams the members it classifies into
# the fresh reservoir and copies only those it accepts, a few KB; the member
# slice it once built under the write lock read 5–11 MB, so one coming back
# fails the gate.
# The tcp engine jobs (BenchmarkEngine/backend=tcp/workers=3 and
# BenchmarkEngine100k/backend=tcp/workers=3) are gated at what the one
# shuffle route reads, the top of eight runs: buckets ride the task frames,
# so a worker-to-worker data plane coming back — its listeners, dials and
# frames — reads as the ≈ 650 and ≈ 1 200 allocs/op it cost there. They run
# fifty jobs per op, not one: a lone job's count carries the pool's
# per-connection start-up and read 1 684–1 843 and 737–764 over eight runs of
# one tree (a spread near the 10 % margin), where fifty read within 0.5 %;
# their lines were re-based down to the top of eight fifty-job runs (1 370
# and 666, from 1 810 and 770).
# One whole MR-CPS run (BenchmarkCPSRun) is gated because its three
# derived jobs are fused scans: a per-tuple allocation creeping back in reads
# as a million allocs/op there. It runs five runs per op, not one: a lone run
# was bimodal, 10 331–10 338 in six of eight full-script runs and
# 10 840–10 850 in two, a one-off of about 510 allocations near the 10 %
# margin; five runs a measurement read 9 383–9 496 over eight full-script
# runs (the first run's set-up is shared by five), and its line was re-based
# down from 10 639 to that top, 9 496.
# The classification kernel and the validation lowering (BenchmarkClassifyColumns,
# BenchmarkValidate) run a hundred ops per measurement, not one: a lone op
# now and then read 5 allocations more than its line (ClassifyColumns/wide
# 5 for 0 about one run in five; Validate/wide 33 for 28 in one of eight
# full-script runs; Validate/large 72 for 67 at GOGC=1). These are one-offs
# of the process landing inside the single measured op: ClassifyColumns
# allocates nothing per call (its scratch is the caller's), and the +5 moves
# between benchmarks from run to run. A hundred ops spread such a one-off
# below one allocation per op, while an allocation per call still reads ≥ 1.
# One map task (BenchmarkFusedMapSplit, still at one P) and one stratum repair
# (BenchmarkLiveRepair) run a hundred ops per measurement too, for the same
# reason: their lines (16 / 32 and 2 allocs/op) sit close enough to a +5
# one-off to fail on it. At a hundred ops they read their lines exactly
# (16 / 32 with 1 024 / 28 672 B/op, and 2 with 2 752 / 4 928 B/op, three
# runs each), so no line moved.
# Refresh the baseline intentionally (and explain why in the commit) with:
#
#   scripts/bench_regress.sh --update
set -euo pipefail
cd "$(dirname "$0")/.."

baseline=scripts/bench_baseline.txt
out=$(mktemp)
trap 'rm -f "$out"' EXIT

run() { # pkg bench-regex [bytes [benchtime [go test flags]]]: prints "name allocs/op [B/op]"
  go test "$1" -run '^$' -bench "$2" -benchtime="${4:-1x}" -count=1 -benchmem "${@:5}" \
    | awk -v bytes="${3:-}" '$NF == "allocs/op" {
        sub(/-[0-9]+$/, "", $1)
        if (bytes != "") print $1, $(NF-1), $(NF-3); else print $1, $(NF-1)
      }'
}

{
  run ./internal/mapreduce/ 'BenchmarkEngine$|BenchmarkEngineTraced$|BenchmarkShuffleSerialized$|BenchmarkShuffleVolume'
  run ./internal/worker/ 'BenchmarkEngine/backend=inproc$'
  run ./internal/worker/ 'BenchmarkEngine/backend=tcp' '' 50x
  # Five passes, not one: a GC cycle landing inside a lone measured pass
  # empties the pooled scan scratch and reads +12 % B/op (seen 1 run in 13).
  run ./internal/serve/ 'BenchmarkServePass$' bytes 5x
  # A hundred ops: a one-off of the process inside a lone op read +5.
  run ./internal/predicate/ 'BenchmarkClassifyColumns' '' 100x
  run ./internal/query/ 'BenchmarkValidate' '' 100x
  # One P: the warm-up pass parks the scan scratch in its P's private pool
  # slot, which a goroutine rescheduled onto another P cannot steal — with two
  # or more, one run in four reallocated the match lists and read 335 for 16.
  # A hundred ops, as the kernel above: its lines sit near a +5 one-off.
  run ./internal/stratified/ 'BenchmarkFusedMapSplit' bytes 100x -cpu=1
  # Five runs: a lone run was bimodal (+≈ 510 in two of eight).
  run ./internal/cps/ 'BenchmarkCPSRun$' '' 5x
  run ./internal/live/ 'BenchmarkNewPopulation$' bytes
  # A hundred repairs: a line of 2 allocs/op would fail on a +5 one-off.
  run ./internal/live/ 'BenchmarkLiveRepair' bytes 100x
  # Five populations, not one: a lone run picks up a few of the runtime's own
  # allocations (seen up to +6 on ≈ 30), more than the 10 % gate allows.
  # Four Ps on any runner: the transform's fan-out follows GOMAXPROCS.
  run ./internal/gen/ 'BenchmarkPopulation$' bytes 5x -cpu=4
} >"$out"

if [[ "${1:-}" == "--update" ]]; then
  cp "$out" "$baseline"
  echo "baseline updated:"
  cat "$baseline"
  exit 0
fi

if [[ ! -f "$baseline" ]]; then
  echo "missing $baseline — run scripts/bench_regress.sh --update" >&2
  exit 1
fi

fail=0
check() { # name unit value baseline: fail when value exceeds baseline by >10%
  if (( $3 * 10 > $4 * 11 )); then
    echo "REGRESSED $1 $3 $2 vs baseline $4 (>10%)"
    fail=1
  else
    echo "ok        $1 $3 $2 (baseline $4)"
  fi
}
while read -r name allocs bytes; do
  read -r base baseBytes <<<"$(awk -v n="$name" '$1 == n { print $2, $3 }' "$baseline")"
  if [[ -z "$base" ]]; then
    echo "NEW       $name ${allocs} allocs/op (not in baseline; run --update)"
    continue
  fi
  check "$name" allocs/op "$allocs" "$base"
  if [[ -n "$bytes" && -n "$baseBytes" ]]; then
    check "$name" B/op "$bytes" "$baseBytes"
  fi
done <"$out"

# A benchmark disappearing silently would hollow out the gate.
while read -r name _; do
  if ! grep -q "^${name} " "$out"; then
    echo "MISSING   $name (in baseline, not produced; run --update if removed on purpose)"
    fail=1
  fi
done <"$baseline"

exit "$fail"
