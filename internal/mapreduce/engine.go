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

// Result is the outcome of a job run: output records (in deterministic
// order: by reducer index, then key order within the reducer) and metrics.
type Result[O any] struct {
	Output  []O
	Metrics Metrics
}

// keyGroups accumulates values per key in first-seen key order with one map
// lookup per record: the map stores only an index into the parallel slices,
// so a record costs a read-probe plus a slice append (no map write after a
// key's first record). This is the grouping structure of the reduce-side
// shuffle output.
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
	// measurably cuts allocation churn.
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

// backend is the per-run seam between the engine loop and an execution
// backend: how map task t runs and where its buckets stay, and how reducer
// r's bucket column is assembled, grouped and reduced. Run owns everything
// else — scheduling, metric folding, the virtual clock, spans, logs. Both
// methods are called concurrently for distinct tasks; every runMap returns
// before the first runReduce starts.
type backend[O any] interface {
	runMap(task int, out *mapOutcome) error
	runReduce(r int, out *reduceOutcome[O]) error
}

// attempt is what the loop folds for one executed task, map or reduce: its
// counters and histograms and, from remote backends only, the worker that
// ran it, the real attempts that died before it succeeded and the trace
// attribution of the successful one.
type attempt struct {
	TaskCounters
	custom map[string]*Histogram
	worker string
	failed []TaskAttempt
	attr   *taskAttribution
	// start and end are the task's offsets from the run start, stamped by
	// the loop around the backend call; like every duration in an outcome
	// they are read only when a tracer is set.
	start, end time.Duration
}

// mapOutcome is one map task's result as the loop sees it; the buckets
// themselves stay inside the backend.
type mapOutcome struct {
	attempt
	shuffleBytes int64
	bucketBytes  Histogram
}

// sent accounts one of the task's shuffle buckets.
func (m *mapOutcome) sent(bytes int64) {
	m.shuffleBytes += bytes
	m.bucketBytes.Observe(bytes)
}

// reduceOutcome is one reducer's result: In counts the shuffled records,
// Groups the distinct keys, recvWall the time from the reducer's start until
// its bucket column was assembled (the rest of the task is reduce work).
type reduceOutcome[O any] struct {
	attempt
	out       []O
	perKey    map[string]KeyStats
	recvBytes int64
	recvWall  time.Duration
}

// inprocBackend runs tasks as closures on the calling goroutines. Buckets
// stay in memory as typed pairs and are never encoded; only their
// approximate wire size is accounted, once, on the map side.
type inprocBackend[S sized, K comparable, V any, O any] struct {
	job         *Job[S, K, V, O]
	splits      []S
	numReducers int
	perKey      bool
	elapsed     func() time.Duration // nil when untraced
	buckets     [][][]Pair[K, V]     // [task][reducer]
	sizes       []int64              // [task*numReducers + reducer]: bucketApproxSize of buckets
}

func (b *inprocBackend[S, K, V, O]) runMap(task int, out *mapOutcome) error {
	run := execMapTask(b.job, b.job.Seed, b.splits[task], task, b.numReducers, b.elapsed)
	out.In, out.Out = run.in, run.out
	out.CombineIn, out.CombineOut = run.combineIn, run.combineOut
	out.custom = run.custom
	if b.elapsed != nil {
		out.MapWall = run.done - out.start
	}
	sizes := b.sizes[task*b.numReducers : (task+1)*b.numReducers]
	for r := range run.buckets {
		sizes[r] = bucketApproxSize(run.buckets[r])
		out.sent(sizes[r])
	}
	b.buckets[task] = run.buckets
	return nil
}

func (b *inprocBackend[S, K, V, O]) runReduce(r int, out *reduceOutcome[O]) error {
	// Concatenate the reducer's buckets in task order, then group by key:
	// value order within a key is (task index, emission order), so parallel
	// grouping is byte-identical to a serial one.
	parts := make([][]Pair[K, V], len(b.buckets))
	for t := range b.buckets {
		parts[t] = b.buckets[t][r]
		out.recvBytes += b.sizes[t*b.numReducers+r]
	}
	groups := groupPairs(parts)
	// Deterministic reduce order within the reducer; the names feed the
	// per-key reduce seeds without re-rendering.
	names := groups.sortByName(b.job.keyString)
	if b.elapsed != nil {
		out.recvWall = b.elapsed() - out.start
	}
	run := execReduceTask(b.job, b.job.Seed, groups, names, r, b.perKey)
	out.In, out.Groups = run.inRecs, int64(len(groups.keyOrder))
	out.out, out.custom, out.perKey = run.out, run.custom, run.perKey
	return nil
}

// Run executes the job over the input splits on the cluster. Each split is
// one map task. The error is non-nil only for configuration problems or
// executor failures; user code panics propagate.
//
// There is one loop and two implementations of the backend seam it drives.
// With no Executor on the cluster tasks run in-process; with one, every task
// is a TaskSpec round-trip to the executor's workers — which rebuild the job
// from its Config, and whose payloads travel through its Codecs, so a job
// without Codecs is an error there — and the shuffle's buckets ride the task
// frames through the coordinator.
//
// Concurrency model: map tasks run on a bounded worker pool, then one unit
// of work per reducer — assemble its bucket column, group, reduce — runs on
// the same pool. Output is byte-identical to a serial run: bucket
// concatenation is in map-task order, reduce order is canonical key order,
// and every map task and reduce key has a private deterministically-seeded
// random source.
//
// Observability: when the cluster carries a Tracer, the engine
// measures per-task wall times and emits one Span per task attempt (the
// attempts that died on a worker included), per-task combine spans
// (of a job that combined anything; they carry the logical counts and no time
// of their own) and shuffle-send spans, per-reducer shuffle-recv and reduce
// spans, and one job span — all from its serial accounting sections, so span
// order is deterministic and, under a frozen clock, byte-identical across
// backends modulo the Span.Worker tag. Histogram and counter collection on Metrics is
// always on; only span assembly and wall-clock reads are gated, which keeps
// the untraced hot path at its benchmarked speed.
func Run[S sized, K comparable, V any, O any](c *Cluster, job *Job[S, K, V, O], splits []S) (*Result[O], error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if job.Mapper == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no mapper", job.Name)
	}
	if job.Reducer == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no reducer", job.Name)
	}
	if c.Executor != nil && job.Codecs == nil {
		return nil, fmt.Errorf("mapreduce: job %q has no codecs to cross the %s executor's wire", job.Name, c.Executor.Name())
	}
	numReducers := c.Slaves

	tr := c.Tracer
	var tctx *TraceContext
	if tr != nil && c.TraceContext != nil {
		// Distributed tracing: stamp every span of this run with the
		// cluster's trace identity. Ids are deterministic hashes of span
		// identity (SpanID), so no per-span coordination is needed and
		// frozen-clock runs stay byte-identical.
		tctx = c.TraceContext
		tr = stampTracer(*tctx, tr)
	}
	perKey := c.PerKeyMetrics || tr != nil
	logDebug := slog.Default().Enabled(context.Background(), slog.LevelDebug)

	now := c.now()
	start := now()
	elapsed := func() time.Duration { return now().Sub(start) }
	var clock func() time.Duration // nil keeps untraced tasks free of clock reads
	if tr != nil {
		clock = elapsed
	}
	var met Metrics
	met.Job = job.Name
	met.MapTasks = len(splits)
	met.ReduceTasks = numReducers

	var be backend[O]
	backendName := "inproc"
	if exec := c.Executor; exec != nil {
		backendName = exec.Name()
		be = newRemoteBackend(exec, job.Codecs.Split, job.Codecs.Output, TaskSpec{
			Job: job.Name, Config: job.Config, Seed: job.Seed,
			NumReducers: numReducers, Frozen: c.Clock != nil,
		}, splits, tctx, perKey, clock)
	} else {
		be = &inprocBackend[S, K, V, O]{
			job: job, splits: splits, numReducers: numReducers, perKey: perKey,
			elapsed: clock, buckets: make([][][]Pair[K, V], len(splits)),
			sizes: make([]int64, len(splits)*numReducers),
		}
	}

	// emitAttempts emits one task's attempt spans: the attempts that died on
	// a worker first (a crash or an expired lease — the only
	// failed attempts there are), then the one that succeeded, which carries
	// the wall and simulated time, then its child spans when it ran remotely.
	// s arrives holding the successful attempt's identity, counts and times.
	emitAttempts := func(s Span, a *attempt) {
		for i, fa := range a.failed {
			tr.Emit(Span{
				Job: s.Job, Phase: s.Phase, Task: s.Task, Attempt: i + 1,
				Failed: true, Start: s.Start, Worker: fa.Worker,
			})
		}
		s.Attempt = len(a.failed) + 1
		tr.Emit(s)
		if a.attr != nil {
			emitRemoteChildren(tr, *tctx, s.Job, s.Phase, s.Task, s.Attempt,
				s.Start, a.attr, a.worker, start.UnixNano(), c.Clock != nil)
		}
	}

	// ---- Map phase (buckets stay in the backend) ----
	// All counters are accumulated per task and folded into Metrics once
	// after the phase: nothing touches shared counters per record.
	maps := make([]mapOutcome, len(splits))
	mapErrs := make([]error, len(splits))
	runParallel(len(splits), c.Slaves, func(t int) {
		m := &maps[t]
		if tr != nil {
			m.start = elapsed()
		}
		mapErrs[t] = be.runMap(t, m)
		if tr != nil {
			m.end = elapsed()
		}
	})
	for _, err := range mapErrs {
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
	}

	// A job combines when any of its tasks folded matches before the shuffle;
	// then every task gets a combine span, a matchless one included, so the
	// job's span tree does not depend on which splits held matches.
	combines := false
	for t := range maps {
		combines = combines || maps[t].CombineIn > 0
	}
	mapDurations := make([]time.Duration, len(splits))
	for t := range maps {
		m := &maps[t]
		met.MapInputRecords += m.In
		met.MapOutputRecords += m.Out
		met.CombineInputRecs += m.CombineIn
		met.CombineOutputRecs += m.CombineOut
		met.ShuffleBytes += m.shuffleBytes
		met.BucketBytes.Merge(m.bucketBytes)
		met.mergeCustom(m.custom)
		met.MapAttempts += int64(1 + len(m.failed))
		mapDurations[t] = c.Cost.TaskOverhead +
			time.Duration(m.In)*c.Cost.MapPerRecord +
			time.Duration(m.CombineIn)*c.Cost.CombinePerRecord
		met.MapTaskNanos.Observe(int64(mapDurations[t]))
		if tr != nil {
			mapDone := m.start + m.MapWall
			emitAttempts(Span{
				Job: job.Name, Phase: PhaseMap, Task: t, Start: m.start,
				Wall: m.MapWall, Simulated: mapDurations[t],
				Records: m.In, Out: m.Out, Worker: m.worker,
			}, &m.attempt)
			sent := m.Out
			if combines {
				sent = m.CombineOut
				tr.Emit(Span{
					Job: job.Name, Phase: PhaseCombine, Task: t, Start: mapDone,
					Records: m.CombineIn, Out: m.CombineOut, Worker: m.worker,
				})
			}
			tr.Emit(Span{
				Job: job.Name, Phase: PhaseShuffleSend, Task: t,
				Start: mapDone, Wall: m.end - mapDone,
				Records: sent, Bytes: m.shuffleBytes, Worker: m.worker,
			})
		}
	}
	met.SimulatedMap = makespan(mapDurations, c.Slaves)
	if logDebug {
		slog.Debug("mapreduce map phase done", "job", job.Name, "backend", backendName,
			"tasks", met.MapTasks, "attempts", met.MapAttempts,
			"records_in", met.MapInputRecords, "records_out", met.MapOutputRecords,
			"simulated", met.SimulatedMap, "wall", elapsed())
	}

	// ---- Shuffle receive + reduce: one unit of work per reducer ----
	reds := make([]reduceOutcome[O], numReducers)
	redErrs := make([]error, numReducers)
	runParallel(numReducers, c.Slaves, func(r int) {
		o := &reds[r]
		if tr != nil {
			o.start = elapsed()
		}
		redErrs[r] = be.runReduce(r, o)
		if tr != nil {
			o.end = elapsed()
		}
	})
	for _, err := range redErrs {
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
	}
	for r := range reds {
		o := &reds[r]
		met.ShuffleRecords += o.In
		if tr != nil {
			// Each recv leg carries its reducer's share of the simulated
			// transfer, so the legs sum to SimulatedShuffle; the send legs
			// carry bytes only, to avoid double counting.
			tr.Emit(Span{
				Job: job.Name, Phase: PhaseShuffleRecv, Task: r,
				Start: o.start, Wall: o.recvWall,
				Simulated: time.Duration(o.recvBytes) * c.Cost.ShufflePerByte,
				Records:   o.In, Bytes: o.recvBytes,
			})
		}
	}
	met.SimulatedShuffle = time.Duration(met.ShuffleBytes) * c.Cost.ShufflePerByte
	if logDebug {
		slog.Debug("mapreduce shuffle done", "job", job.Name, "backend", backendName,
			"records", met.ShuffleRecords, "bytes", met.ShuffleBytes,
			"simulated", met.SimulatedShuffle, "wall", elapsed())
	}

	reduceDurations := make([]time.Duration, numReducers)
	var final []O
	for r := range reds {
		o := &reds[r]
		met.ReduceInputGroups += o.Groups
		met.ReduceInputRecs += o.In
		met.OutputRecords += int64(len(o.out))
		met.mergeCustom(o.custom)
		met.mergePerKey(o.perKey)
		met.ReduceAttempts += int64(1 + len(o.failed))
		reduceDurations[r] = c.Cost.TaskOverhead + time.Duration(o.In)*c.Cost.ReducePerRecord
		met.ReduceTaskNanos.Observe(int64(reduceDurations[r]))
		if tr != nil {
			redStart := o.start + o.recvWall
			emitAttempts(Span{
				Job: job.Name, Phase: PhaseReduce, Task: r, Start: redStart,
				Wall: o.end - redStart, Simulated: reduceDurations[r],
				Records: o.In, Groups: o.Groups, Out: int64(len(o.out)), Worker: o.worker,
			}, &o.attempt)
		}
		final = append(final, o.out...)
	}
	met.SimulatedReduce = makespan(reduceDurations, c.Slaves)
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
		slog.Debug("mapreduce job done", "job", job.Name, "backend", backendName,
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
