package mapreduce

import (
	"strconv"
	"time"
)

// This file holds the backend-independent task cores. The in-process engine
// (engine.go) and remote workers (via the registry in registry.go) both
// execute map and reduce attempts through these functions; sharing the
// implementation — same seeding, same combine ordering, same partitioning,
// same per-key reduce RNG — is what keeps job output byte-identical across
// execution backends.

// mapTaskRun is everything one map-task execution produced: per-reducer
// buckets, counters, custom histograms, and — when a clock was supplied —
// the offsets at which the map and combine stages finished.
type mapTaskRun[K comparable, V any] struct {
	buckets                        [][]Pair[K, V]
	in, out, combineIn, combineOut int64
	custom                         map[string]*Histogram
	mapDone, combineDone           time.Duration
}

// execMapTask runs the map (and optional combine) stage of one task over its
// split and partitions the output into per-reducer buckets. elapsed supplies
// stage-boundary timestamps for tracing and may be nil when nobody is
// watching (untraced runs, or remote attempts under a frozen clock).
func execMapTask[I any, K comparable, V any, O any](
	job *Job[I, K, V, O], seed int64, split []I, task, numReducers int,
	elapsed func() time.Duration,
) mapTaskRun[K, V] {
	if job.BatchMapper != nil {
		return execFusedTask(job, seed, split, task, numReducers, elapsed)
	}
	var run mapTaskRun[K, V]
	id := strconv.Itoa(task)
	ctx := newTaskContext(job.Name, "map", task, taskSeed(seed, "map", id))
	ctx.observe = histObserver(&run.custom)
	// Buffer map output per key, preserving key first-seen order for
	// deterministic combiner invocation order.
	groups := newKeyGroups[K, V](len(split))
	emit := func(k K, v V) {
		groups.add(k, v)
		run.out++
	}
	for i := range split {
		run.in++
		job.Mapper.Map(ctx, split[i], emit)
	}
	if elapsed != nil {
		run.mapDone = elapsed()
	}

	buckets := make([][]Pair[K, V], numReducers)
	// Pre-cap each bucket near its expected share of this task's pairs so the
	// per-pair append path rarely grows: combiners typically emit about one
	// pair per key, the plain path forwards every map output.
	bucketCap := len(groups.keyOrder)/numReducers + 1
	if job.Combiner == nil {
		bucketCap = int(run.out)/numReducers + 1
	}
	for r := range buckets {
		buckets[r] = make([]Pair[K, V], 0, bucketCap)
	}
	if job.Combiner != nil {
		// Deterministic combine order: sort keys canonically so the task RNG
		// consumption is independent of map emission order.
		names := groups.sortByName(job.keyString)
		cctx := newTaskContext(job.Name, "combine", task, taskSeed(seed, "combine", id))
		cctx.observe = ctx.observe
		for i, k := range groups.keyOrder {
			vs := groups.lists[i]
			run.combineIn += int64(len(vs))
			p := job.partitionByName(k, names[i], numReducers)
			job.Combiner.Combine(cctx, k, vs, func(v V) {
				run.combineOut++
				buckets[p] = append(buckets[p], Pair[K, V]{k, v})
			})
		}
	} else {
		for i, k := range groups.keyOrder {
			p := job.partition(k, numReducers)
			for _, v := range groups.lists[i] {
				buckets[p] = append(buckets[p], Pair[K, V]{k, v})
			}
		}
	}
	if elapsed != nil {
		run.combineDone = elapsed()
	}
	run.buckets = buckets
	return run
}

// execFusedTask runs a BatchMapper job's map task: one fused map + combine
// call whose emissions go straight into the per-reducer buckets — no group
// table, no separate combine stage (its span is empty). The stage draws from
// the task's combine stream, the only random stream of such a task.
func execFusedTask[I any, K comparable, V any, O any](
	job *Job[I, K, V, O], seed int64, split []I, task, numReducers int,
	elapsed func() time.Duration,
) mapTaskRun[K, V] {
	var run mapTaskRun[K, V]
	ctx := newTaskContext(job.Name, "map", task, taskSeed(seed, "combine", strconv.Itoa(task)))
	ctx.observe = histObserver(&run.custom)
	run.buckets = make([][]Pair[K, V], numReducers)
	run.in = int64(len(split))
	run.out = job.BatchMapper.MapSplit(ctx, split, func(k K, v V) {
		run.combineOut++
		p := job.partition(k, numReducers)
		run.buckets[p] = append(run.buckets[p], Pair[K, V]{k, v})
	})
	run.combineIn = run.out
	if elapsed != nil {
		run.mapDone = elapsed()
		run.combineDone = run.mapDone
	}
	return run
}

// groupPairs concatenates the task-ordered bucket list of one reducer and
// groups it by key. Value order within a key is (task index, emission order):
// deterministic, so a parallel grouping is byte-identical to a serial one.
func groupPairs[K comparable, V any](parts [][]Pair[K, V]) *keyGroups[K, V] {
	var total int
	for _, pairs := range parts {
		total += len(pairs)
	}
	groups := newKeyGroups[K, V](total)
	for _, pairs := range parts {
		for i := range pairs {
			groups.add(pairs[i].Key, pairs[i].Value)
		}
	}
	return groups
}

// reduceTaskRun is everything one reduce-task execution produced.
type reduceTaskRun[O any] struct {
	out    []O
	inRecs int64
	custom map[string]*Histogram
	perKey map[string]KeyStats
}

// execReduceTask reduces one reducer's groups in canonical key order. groups
// must already be sorted by sortByName and names aligned with its key order
// (the names feed the per-key reduce seeds without re-rendering). collectKeys
// asks for per-key (per-stratum) input/output counters.
func execReduceTask[I any, K comparable, V any, O any](
	job *Job[I, K, V, O], seed int64, groups *keyGroups[K, V], names []string,
	task int, collectKeys bool,
) reduceTaskRun[O] {
	var run reduceTaskRun[O]
	emit := func(o O) { run.out = append(run.out, o) }
	// One context per reducer task, reseeded per key: a reseed is two word
	// stores, where a fresh context per key paid three allocations. Reduce
	// code only sees ctx during its call.
	ctx := newTaskContext(job.Name, "reduce", task, 0)
	ctx.observe = histObserver(&run.custom)
	if collectKeys {
		run.perKey = make(map[string]KeyStats, len(groups.keyOrder))
	}
	for i, k := range groups.keyOrder {
		// Per-key RNG so the reduction of a key is reproducible no matter
		// which reducer task it lands on.
		ctx.Rand.Seed(taskSeed(seed, "reduce", names[i]))
		vs := groups.lists[i]
		run.inRecs += int64(len(vs))
		before := len(run.out)
		job.Reducer.Reduce(ctx, k, vs, emit)
		if collectKeys {
			ks := run.perKey[names[i]]
			ks.Records += int64(len(vs))
			ks.Output += int64(len(run.out) - before)
			run.perKey[names[i]] = ks
		}
	}
	return run
}
