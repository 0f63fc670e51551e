package mapreduce

import (
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// nonPortableFallbacks counts jobs that were asked to run on a remote
// executor but silently stayed in-process because they carry no (Maker,
// Config) registration — bespoke closure jobs like RunKeyed and the CPS
// dealing/limit classifiers. The counter makes the fallback visible to
// operators (exported via NonPortableFallbacks and the strata debug vars)
// alongside the per-job warning log.
var nonPortableFallbacks atomic.Int64

// NonPortableFallbacks reports how many jobs fell back to in-process
// execution because they were not portable to the configured remote executor.
func NonPortableFallbacks() int64 { return nonPortableFallbacks.Load() }

// Result is the outcome of a job run: output records (in deterministic
// order: by reducer index, then key order within the reducer) and metrics.
type Result[O any] struct {
	Output  []O
	Metrics Metrics
}

// keyGroups accumulates values per key in first-seen key order with one map
// lookup per record: the map stores only an index into the parallel slices,
// so the per-record path is a read-probe plus a slice append (no map write
// after a key's first record). This is the grouping structure of both the
// map-side combine input and the reduce-side shuffle output.
type keyGroups[K comparable, V any] struct {
	index    map[K]int
	keyOrder []K
	lists    [][]V
}

func newKeyGroups[K comparable, V any](sizeHint int) *keyGroups[K, V] {
	// Cap the pre-size: the record count bounds the distinct-key count but
	// can exceed it by orders of magnitude (e.g. a naive shuffle of every
	// tuple under a handful of stratum keys), and an oversized table costs
	// more to zero than the first few growths it would have saved.
	if sizeHint > 256 {
		sizeHint = 256
	}
	return &keyGroups[K, V]{index: make(map[K]int, sizeHint)}
}

func (g *keyGroups[K, V]) add(k K, v V) {
	if i, ok := g.index[k]; ok {
		g.lists[i] = append(g.lists[i], v)
		return
	}
	g.index[k] = len(g.lists)
	g.keyOrder = append(g.keyOrder, k)
	// Start each value list with a little headroom: keys that group at all
	// usually collect several values, and skipping the 1→2→4 growth steps
	// measurably cuts allocation churn on the per-record path.
	list := make([]V, 1, 4)
	list[0] = v
	g.lists = append(g.lists, list)
}

// sortByName reorders the groups into canonical key order and returns the
// rendered names aligned with keyOrder/lists. It renders every key exactly
// once (the previous per-comparison keyString calls were O(n log n) renders).
func (g *keyGroups[K, V]) sortByName(name func(K) string) []string {
	names := make([]string, len(g.keyOrder))
	perm := make([]int, len(g.keyOrder))
	for i, k := range g.keyOrder {
		names[i] = name(k)
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return names[perm[a]] < names[perm[b]] })
	sortedKeys := make([]K, len(perm))
	sortedLists := make([][]V, len(perm))
	sortedNames := make([]string, len(perm))
	for out, in := range perm {
		sortedKeys[out] = g.keyOrder[in]
		sortedLists[out] = g.lists[in]
		sortedNames[out] = names[in]
	}
	g.keyOrder, g.lists = sortedKeys, sortedLists
	return sortedNames
}

// histObserver returns a TaskContext.Observe backend recording into *set,
// allocating the map and histograms on first use so untraced jobs that never
// observe pay only a nil-map check.
func histObserver(set *map[string]*Histogram) func(string, int64) {
	return func(name string, v int64) {
		if *set == nil {
			*set = make(map[string]*Histogram, 2)
		}
		h := (*set)[name]
		if h == nil {
			h = &Histogram{}
			(*set)[name] = h
		}
		h.Observe(v)
	}
}

// mergeCustom folds one task's observed histograms into Metrics.Custom.
func (m *Metrics) mergeCustom(custom map[string]*Histogram) {
	for name, h := range custom {
		if m.Custom == nil {
			m.Custom = make(map[string]*Histogram, len(custom))
		}
		if mine := m.Custom[name]; mine != nil {
			mine.Merge(*h)
		} else {
			cp := *h
			m.Custom[name] = &cp
		}
	}
}

// Run executes the job over the input splits on the cluster. Each split is
// one map task. The error is non-nil only for configuration problems or
// transport failures; user code panics propagate.
//
// Concurrency model: map tasks run on a bounded worker pool and — when a
// Transport is installed — each task encodes and sends its shuffle buckets
// as soon as it finishes mapping, so sends overlap the remaining map work
// (pipelined shuffle). The per-reducer receive, decode and group step then
// runs on the same pool, one unit per reducer, as does the reduce phase.
// Output is byte-identical to a serial shuffle: bucket concatenation is in
// map-task order, reduce order is canonical key order, and every map task
// and reduce key has a private deterministically-seeded random source.
//
// Observability: when the cluster carries an enabled Tracer, the engine
// measures per-task wall times and emits one Span per task attempt (fault
// re-executions included), per-task combine and shuffle-send spans,
// per-reducer shuffle-recv and reduce spans, and one job span — all from
// its serial accounting sections, so span order is deterministic. Histogram
// and counter collection on Metrics is always on; only span assembly and
// wall-clock reads are gated, which keeps the untraced hot path at its
// benchmarked speed.
func Run[I any, K comparable, V any, O any](c *Cluster, job *Job[I, K, V, O], splits [][]I) (*Result[O], error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if job.Mapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no mapper", job.Name)
	}
	if job.Reducer == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no reducer", job.Name)
	}
	numReducers := job.NumReducers
	if numReducers <= 0 {
		numReducers = c.Slaves
	}

	tr := c.tracer()
	if tr != nil && c.TraceContext != nil {
		// Distributed tracing: stamp every span of this run with the
		// cluster's trace identity. Ids are deterministic hashes of span
		// identity (SpanID), so no per-span coordination is needed and
		// frozen-clock runs stay byte-identical.
		tr = stampTracer(*c.TraceContext, tr)
	}
	perKey := c.PerKeyMetrics || tr != nil
	logDebug := slog.Default().Enabled(context.Background(), slog.LevelDebug)
	if jo, ok := tr.(JobObserver); ok {
		// Announce the run before any task executes so live-progress
		// consumers know the per-phase totals from the start.
		jo.JobStarted(job.Name, len(splits), numReducers)
	}

	now := c.now()
	start := now()
	elapsed := func() time.Duration { return now().Sub(start) }
	var met Metrics
	met.Job = job.Name
	met.MapTasks = len(splits)
	met.ReduceTasks = numReducers

	var transport Transport
	if c.NewTransport != nil {
		var err error
		transport, err = c.NewTransport()
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
		defer transport.Close()
	}

	// A remote executor (subprocess or TCP workers) takes over task
	// execution when the job is portable; the engine keeps all scheduling,
	// fault accounting and span emission so the observable behavior matches
	// the in-process path exactly. Non-portable jobs (no Maker registered)
	// stay in-process — real distribution needs code the worker binary can
	// reconstruct.
	if exec := c.remoteExecutor(); exec != nil {
		if job.Maker != "" {
			return runRemote(c, job, splits, numReducers, exec, transport, tr, &met, now, start)
		}
		nonPortableFallbacks.Add(1)
		slog.Warn("mapreduce: job is not portable, running in-process",
			"job", job.Name, "executor", exec.Name(), "reason", "no job maker registered",
			"fallbacks_total", nonPortableFallbacks.Load())
	}

	// ---- Map phase (with per-task combine and pipelined shuffle sends) ----
	// All counters are accumulated per task and folded into Metrics once
	// after the phase: nothing touches shared counters per record.
	type mapCounters struct {
		in, out, combineIn, combineOut, shuffleBytes int64
		bucketBytes                                  Histogram
		custom                                       map[string]*Histogram
		// Wall-clock trace points, as offsets from the run start; written
		// only when a tracer is enabled.
		startOff, mapDone, combineDone, sendDone time.Duration
	}
	perTask := make([][][]Pair[K, V], len(splits)) // [task][reducer]
	taskCounts := make([]mapCounters, len(splits))
	taskErrs := make([]error, len(splits))

	runParallel(len(splits), c.workers(), func(task int) {
		cnt := &taskCounts[task]
		if tr != nil {
			cnt.startOff = elapsed()
		}
		var stage func() time.Duration
		if tr != nil {
			stage = elapsed
		}
		run := execMapTask(job, job.Seed, splits[task], task, numReducers, stage)
		cnt.in, cnt.out = run.in, run.out
		cnt.combineIn, cnt.combineOut = run.combineIn, run.combineOut
		cnt.custom = run.custom
		cnt.mapDone, cnt.combineDone = run.mapDone, run.combineDone
		// Pipelined shuffle: this task's buckets leave the map worker as
		// soon as they exist, overlapping the remaining map tasks. Without
		// a transport the buckets stay in memory and only their approximate
		// wire size is accounted, one bucket at a time.
		if transport != nil {
			for r := range run.buckets {
				payload, err := encodeBucket(run.buckets[r])
				if err != nil {
					taskErrs[task] = err
					return
				}
				n, err := transport.Send(task, r, payload)
				if err != nil {
					taskErrs[task] = err
					return
				}
				cnt.shuffleBytes += int64(n)
				cnt.bucketBytes.Observe(int64(n))
			}
		} else {
			for r := range run.buckets {
				n := bucketApproxSize(run.buckets[r])
				cnt.shuffleBytes += n
				cnt.bucketBytes.Observe(n)
			}
		}
		if tr != nil {
			cnt.sendDone = elapsed()
		}
		perTask[task] = run.buckets
	})
	for _, err := range taskErrs {
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
	}

	mapDurations := make([]time.Duration, len(splits))
	for t := range taskCounts {
		cnt := &taskCounts[t]
		met.MapInputRecords += cnt.in
		met.MapOutputRecords += cnt.out
		met.CombineInputRecs += cnt.combineIn
		met.CombineOutputRecs += cnt.combineOut
		met.ShuffleBytes += cnt.shuffleBytes
		met.BucketBytes.Merge(cnt.bucketBytes)
		met.mergeCustom(cnt.custom)
		base := c.Cost.TaskOverhead +
			time.Duration(cnt.in)*c.Cost.MapPerRecord +
			time.Duration(cnt.combineIn)*c.Cost.CombinePerRecord
		plan, err := c.Faults.plan("map", t)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
		met.MapAttempts += int64(plan.attempts)
		mapDurations[t] = time.Duration(float64(base) * plan.factor)
		met.MapTaskNanos.Observe(int64(mapDurations[t]))
		if tr != nil {
			sent := cnt.out
			if job.combines() {
				sent = cnt.combineOut
			}
			for a := 0; a < plan.attempts; a++ {
				s := Span{
					Job: job.Name, Phase: PhaseMap, Task: t, Attempt: a + 1,
					Failed:    a < plan.attempts-1,
					Start:     cnt.startOff,
					Simulated: time.Duration(float64(base) * plan.attemptFactor(a)),
					Records:   cnt.in, Out: cnt.out,
				}
				if a == plan.attempts-1 {
					s.Wall = cnt.mapDone - cnt.startOff
				}
				tr.Emit(s)
			}
			if job.combines() {
				tr.Emit(Span{
					Job: job.Name, Phase: PhaseCombine, Task: t,
					Start: cnt.mapDone, Wall: cnt.combineDone - cnt.mapDone,
					Records: cnt.combineIn, Out: cnt.combineOut,
				})
			}
			tr.Emit(Span{
				Job: job.Name, Phase: PhaseShuffleSend, Task: t,
				Start: cnt.combineDone, Wall: cnt.sendDone - cnt.combineDone,
				Records: sent, Bytes: cnt.shuffleBytes,
			})
		}
	}
	met.SimulatedMap = makespan(mapDurations, c.Slots())
	if logDebug {
		slog.Debug("mapreduce map phase done", "job", job.Name,
			"tasks", met.MapTasks, "attempts", met.MapAttempts,
			"records_in", met.MapInputRecords, "records_out", met.MapOutputRecords,
			"simulated", met.SimulatedMap, "wall", elapsed())
	}

	// ---- Shuffle: parallel per-reducer receive, decode and group ----
	// For each reducer, concatenate task buckets in task order, then group
	// by key. Value order within a key is (task index, emission order):
	// deterministic, so the parallel grouping is byte-identical to a serial
	// one. With a Transport installed, buckets travel serialized (and, for
	// TCPTransport, over real sockets) and ShuffleBytes are wire bytes;
	// otherwise they are estimated from the in-memory pairs.
	reducerGroups := make([]*keyGroups[K, V], numReducers)
	reducerNames := make([][]string, numReducers)
	shuffleRecs := make([]int64, numReducers)
	shuffleRetries := make([]int64, numReducers)
	reducerErrs := make([]error, numReducers)
	var recvStart, recvDur []time.Duration
	var recvBytes []int64
	if tr != nil {
		recvStart = make([]time.Duration, numReducers)
		recvDur = make([]time.Duration, numReducers)
		recvBytes = make([]int64, numReducers)
	}

	runParallel(numReducers, c.workers(), func(r int) {
		if tr != nil {
			recvStart[r] = elapsed()
		}
		var parts [][]Pair[K, V] // task-ordered bucket list for this reducer
		if transport != nil {
			payloads, retries, err := receiveRetrying(transport, r, len(splits), c.ShuffleRetry, nil)
			shuffleRetries[r] = retries
			if err != nil {
				reducerErrs[r] = fmt.Errorf("reducer %d: %w", r, err)
				return
			}
			parts = make([][]Pair[K, V], 0, len(payloads))
			for task, payload := range payloads {
				pairs, err := decodeBucket[K, V](payload)
				if err != nil {
					// Name the originating map task: payloads arrive in
					// map-task order, so the slice index is the task id.
					reducerErrs[r] = fmt.Errorf("reducer %d: bucket from map task %d: %w", r, task, err)
					return
				}
				if tr != nil {
					recvBytes[r] += int64(len(payload))
				}
				parts = append(parts, pairs)
			}
		} else {
			parts = make([][]Pair[K, V], len(perTask))
			for t := range perTask {
				parts[t] = perTask[t][r]
				if tr != nil {
					recvBytes[r] += bucketApproxSize(parts[t])
				}
			}
		}
		groups := groupPairs(parts)
		var total int64
		for _, pairs := range parts {
			total += int64(len(pairs))
		}
		shuffleRecs[r] = total
		// Deterministic reduce order within the reducer; the names feed the
		// per-key reduce seeds without re-rendering.
		reducerNames[r] = groups.sortByName(job.keyString)
		reducerGroups[r] = groups
		if tr != nil {
			recvDur[r] = elapsed() - recvStart[r]
		}
	})
	for _, err := range reducerErrs {
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
	}
	for r := 0; r < numReducers; r++ {
		met.ShuffleRecords += shuffleRecs[r]
		met.ShuffleRetries += shuffleRetries[r]
		if tr != nil {
			// Each recv leg carries its reducer's share of the simulated
			// transfer, so the legs sum to SimulatedShuffle (exactly with
			// the in-memory shuffle, minus framing overhead with a real
			// Transport); the send legs carry bytes only, to avoid double
			// counting.
			tr.Emit(Span{
				Job: job.Name, Phase: PhaseShuffleRecv, Task: r,
				Start: recvStart[r], Wall: recvDur[r],
				Simulated: time.Duration(recvBytes[r]) * c.Cost.ShufflePerByte,
				Records:   shuffleRecs[r], Bytes: recvBytes[r],
			})
		}
	}
	met.SimulatedShuffle = time.Duration(met.ShuffleBytes) * c.Cost.ShufflePerByte
	if logDebug {
		slog.Debug("mapreduce shuffle done", "job", job.Name,
			"records", met.ShuffleRecords, "bytes", met.ShuffleBytes,
			"simulated", met.SimulatedShuffle, "wall", elapsed())
	}

	// ---- Reduce phase ----
	outputs := make([][]O, numReducers)
	reduceCounts := make([]int64, numReducers)
	reduceCustom := make([]map[string]*Histogram, numReducers)
	var keyStats []map[string]KeyStats
	if perKey {
		keyStats = make([]map[string]KeyStats, numReducers)
	}
	var redStart, redDur []time.Duration
	if tr != nil {
		redStart = make([]time.Duration, numReducers)
		redDur = make([]time.Duration, numReducers)
	}
	runParallel(numReducers, c.workers(), func(r int) {
		if tr != nil {
			redStart[r] = elapsed()
		}
		run := execReduceTask(job, job.Seed, reducerGroups[r], reducerNames[r], r, perKey)
		outputs[r] = run.out
		reduceCounts[r] = run.inRecs
		reduceCustom[r] = run.custom
		if perKey {
			keyStats[r] = run.perKey
		}
		if tr != nil {
			redDur[r] = elapsed() - redStart[r]
		}
	})

	reduceDurations := make([]time.Duration, numReducers)
	var final []O
	for r := 0; r < numReducers; r++ {
		met.ReduceInputGroups += int64(len(reducerGroups[r].keyOrder))
		met.ReduceInputRecs += reduceCounts[r]
		met.OutputRecords += int64(len(outputs[r]))
		met.mergeCustom(reduceCustom[r])
		if perKey {
			if met.PerKey == nil {
				met.PerKey = make(map[string]KeyStats, len(keyStats[r]))
			}
			for key, ks := range keyStats[r] {
				// Accumulate rather than assign: distinct keys can render
				// to the same name under a lossy KeyString.
				acc := met.PerKey[key]
				acc.Records += ks.Records
				acc.Output += ks.Output
				met.PerKey[key] = acc
			}
		}
		base := c.Cost.TaskOverhead + time.Duration(reduceCounts[r])*c.Cost.ReducePerRecord
		plan, err := c.Faults.plan("reduce", r)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
		met.ReduceAttempts += int64(plan.attempts)
		reduceDurations[r] = time.Duration(float64(base) * plan.factor)
		met.ReduceTaskNanos.Observe(int64(reduceDurations[r]))
		if tr != nil {
			for a := 0; a < plan.attempts; a++ {
				s := Span{
					Job: job.Name, Phase: PhaseReduce, Task: r, Attempt: a + 1,
					Failed:    a < plan.attempts-1,
					Start:     redStart[r],
					Simulated: time.Duration(float64(base) * plan.attemptFactor(a)),
					Records:   reduceCounts[r],
					Groups:    int64(len(reducerGroups[r].keyOrder)),
					Out:       int64(len(outputs[r])),
				}
				if a == plan.attempts-1 {
					s.Wall = redDur[r]
				}
				tr.Emit(s)
			}
		}
		final = append(final, outputs[r]...)
	}
	met.SimulatedReduce = makespan(reduceDurations, c.Slots())
	met.WallTime = elapsed()
	if tr != nil {
		tr.Emit(Span{
			Job: job.Name, Phase: PhaseJob,
			Wall: met.WallTime, Simulated: met.SimulatedTotal(),
			Records: met.MapInputRecords, Out: met.OutputRecords,
			Groups: met.ReduceInputGroups, Bytes: met.ShuffleBytes,
		})
	}
	if logDebug {
		slog.Debug("mapreduce job done", "job", job.Name,
			"output_records", met.OutputRecords, "groups", met.ReduceInputGroups,
			"attempts", met.MapAttempts+met.ReduceAttempts,
			"simulated", met.SimulatedTotal(), "wall", met.WallTime)
	}

	return &Result[O]{Output: final, Metrics: met}, nil
}

// runParallel runs fn(0..n-1) on at most `workers` goroutines and waits. The
// work channel is buffered to n and fully loaded before the workers start,
// so no goroutine ever blocks on the producer and the call site's only
// synchronization is the final Wait. A panic in fn is re-raised on the
// calling goroutine, with the worker's stack, once the other workers have
// finished — where a caller's recover can see it — instead of killing the
// process from a goroutine nobody can guard.
func runParallel(n, workers int, fn func(int)) {
	if n <= 0 {
		return
	}
	if workers < 1 {
		workers = 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	next := make(chan int, n)
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	var panicked atomic.Pointer[string] // first panic of a worker goroutine
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					msg := fmt.Sprintf("%v\n\n%s", r, debug.Stack())
					panicked.CompareAndSwap(nil, &msg)
				}
			}()
			for i := range next {
				fn(i)
			}
		}()
	}
	wg.Wait()
	if msg := panicked.Load(); msg != nil {
		panic(*msg)
	}
}
