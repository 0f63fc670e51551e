package mapreduce

import (
	"cmp"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The engine's test jobs are stages of the paper's two shapes, each built
// from a per-record function that emits the (key, value) matches of one
// record, over splits of records.

// records is the test jobs' split type: a plain slice the engine sizes by
// its length.
type records[T any] []T

func (r records[T]) Len() int { return len(r) }

// forwardStage forwards every match to the shuffle (Figure 1).
type forwardStage[I any, K comparable, V any] func(ctx *TaskContext, in I, emit func(K, V))

func (fn forwardStage[I, K, V]) MapSplit(ctx *TaskContext, split records[I], emit func(K, V)) (matches, combined int64) {
	forward := func(k K, v V) {
		matches++
		emit(k, v)
	}
	for _, in := range split {
		fn(ctx, in, forward)
	}
	return matches, 0
}

// sumStage combines inside the map task (Figure 2's shape): it sums the
// matches of each key and emits one (key, sum) pair per key the split held,
// in key order.
type sumStage[I any, K cmp.Ordered] struct {
	fn func(ctx *TaskContext, in I, emit func(K, int64))
	// observe, when set, names the custom histogram that receives each
	// emitted key's match count.
	observe string
}

func (s sumStage[I, K]) MapSplit(ctx *TaskContext, split records[I], emit func(K, int64)) (matches, combined int64) {
	sums, counts := map[K]int64{}, map[K]int64{}
	fold := func(k K, v int64) {
		matches++
		sums[k] += v
		counts[k]++
	}
	for _, in := range split {
		s.fn(ctx, in, fold)
	}
	keys := make([]K, 0, len(sums))
	for k := range sums {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		if s.observe != "" {
			ctx.Observe(s.observe, counts[k])
		}
		emit(k, sums[k])
	}
	return matches, matches
}

// sumReducer emits wrap(key, sum of the key's values).
func sumReducer[K comparable, O any](wrap func(K, int64) O) Reducer[K, int64, O] {
	return ReducerFunc[K, int64, O](func(_ *TaskContext, k K, vs []int64, emit func(O)) {
		var sum int64
		for _, v := range vs {
			sum += v
		}
		emit(wrap(k, sum))
	})
}

// wordCount is the canonical test job.
type wcOut struct {
	Word  string
	Count int64
}

func wcWords(_ *TaskContext, line string, emit func(string, int64)) {
	for _, w := range strings.Fields(line) {
		emit(w, 1)
	}
}

// wordCountJob counts words with a forwarding stage or, combining, with a
// summing one.
func wordCountJob(seed int64, combining bool) *Job[records[string], string, int64, wcOut] {
	job := &Job[records[string], string, int64, wcOut]{
		Name:    "wordcount",
		Seed:    seed,
		Mapper:  forwardStage[string, string, int64](wcWords),
		Reducer: sumReducer(func(w string, n int64) wcOut { return wcOut{w, n} }),
	}
	if combining {
		job.Mapper = sumStage[string, string]{fn: wcWords}
	}
	return job
}

var wcSplits = []records[string]{
	{"a b a", "c"},
	{"b b", "a c c c"},
	{},
}

func sortedWC(out []wcOut) []wcOut {
	s := append([]wcOut(nil), out...)
	sort.Slice(s, func(i, j int) bool { return s[i].Word < s[j].Word })
	return s
}

func TestWordCount(t *testing.T) {
	c := NewCluster(2)
	res, err := Run(c, wordCountJob(1, false), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	want := []wcOut{{"a", 3}, {"b", 3}, {"c", 4}}
	if got := sortedWC(res.Output); !reflect.DeepEqual(got, want) {
		t.Fatalf("output %v, want %v", got, want)
	}
}

func TestCombinerDoesNotChangeResult(t *testing.T) {
	c := NewCluster(3)
	plain, err := Run(c, wordCountJob(1, false), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	combined, err := Run(c, wordCountJob(1, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedWC(plain.Output), sortedWC(combined.Output)) {
		t.Fatal("combiner changed the word count")
	}
	if combined.Metrics.ShuffleRecords >= plain.Metrics.ShuffleRecords {
		t.Fatalf("combiner did not reduce shuffle: %d vs %d",
			combined.Metrics.ShuffleRecords, plain.Metrics.ShuffleRecords)
	}
}

func TestMetricsCounters(t *testing.T) {
	c := NewCluster(2)
	res, err := Run(c, wordCountJob(1, false), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.MapTasks != 3 || m.MapInputRecords != 4 {
		t.Fatalf("map counters: %+v", m)
	}
	if m.MapOutputRecords != 10 || m.ShuffleRecords != 10 {
		t.Fatalf("output/shuffle counters: %+v", m)
	}
	if m.ReduceInputGroups != 3 || m.OutputRecords != 3 {
		t.Fatalf("reduce counters: %+v", m)
	}
	if m.ShuffleBytes <= 0 {
		t.Fatal("shuffle bytes not accounted")
	}
	if m.SimulatedTotal() <= 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestDeterministicAcrossParallelism(t *testing.T) {
	// A stage and a reducer that consume randomness: a random value per
	// match, and one of them sampled per key.
	mkJob := func() *Job[records[string], string, int64, wcOut] {
		return &Job[records[string], string, int64, wcOut]{
			Name: "pick",
			Seed: 42,
			Mapper: forwardStage[string, string, int64](func(ctx *TaskContext, line string, emit func(string, int64)) {
				for _, w := range strings.Fields(line) {
					emit(w, int64(len(w))+ctx.Rand.Int63n(100))
				}
			}),
			Reducer: ReducerFunc[string, int64, wcOut](func(ctx *TaskContext, w string, vs []int64, emit func(wcOut)) {
				emit(wcOut{w, vs[ctx.Rand.Intn(len(vs))]})
			}),
		}
	}
	r1, err := Run(&Cluster{Slaves: 1, Cost: ZeroCostModel()}, mkJob(), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(&Cluster{Slaves: 8, Cost: ZeroCostModel()}, mkJob(), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedWC(r1.Output), sortedWC(r8.Output)) {
		t.Fatal("results differ across cluster sizes with the same seed")
	}
}

func TestSeedChangesRandomness(t *testing.T) {
	mk := func(seed int64) *Job[records[string], string, int64, wcOut] {
		j := wordCountJob(seed, false)
		j.Reducer = ReducerFunc[string, int64, wcOut](func(ctx *TaskContext, w string, vs []int64, emit func(wcOut)) {
			emit(wcOut{w, ctx.Rand.Int63n(1 << 30)})
		})
		return j
	}
	c := NewCluster(2)
	r1, _ := Run(c, mk(1), wcSplits)
	r2, _ := Run(c, mk(2), wcSplits)
	if reflect.DeepEqual(sortedWC(r1.Output), sortedWC(r2.Output)) {
		t.Fatal("different seeds produced identical random output")
	}
}

func TestRunValidation(t *testing.T) {
	job := wordCountJob(1, false)
	if _, err := Run(&Cluster{Slaves: 0}, job, wcSplits); err == nil {
		t.Fatal("want cluster validation error")
	}
	bad := wordCountJob(1, false)
	bad.Mapper = nil
	if _, err := Run(NewCluster(1), bad, wcSplits); err == nil {
		t.Fatal("want missing-mapper error")
	}
	bad2 := wordCountJob(1, false)
	bad2.Reducer = nil
	if _, err := Run(NewCluster(1), bad2, wcSplits); err == nil {
		t.Fatal("want missing-reducer error")
	}
}

func TestMakespan(t *testing.T) {
	ds := []time.Duration{4, 3, 3, 2} // seconds-agnostic units
	if got := makespan(ds, 1); got != 12 {
		t.Fatalf("serial makespan %d, want 12", got)
	}
	if got := makespan(ds, 2); got != 6 {
		t.Fatalf("2-slot makespan %d, want 6", got)
	}
	if got := makespan(ds, 4); got != 4 {
		t.Fatalf("4-slot makespan %d, want 4", got)
	}
	if got := makespan(nil, 3); got != 0 {
		t.Fatalf("empty makespan %d", got)
	}
}

// TestStragglersStretchMakespan: the only straggler the virtual clock knows
// is a task with more work. One oversized split among twenty stretches the
// simulated map phase and adds no attempt.
func TestStragglersStretchMakespan(t *testing.T) {
	splits := make([]records[string], 20)
	for i := range splits {
		splits[i] = []string{"x y z", "x"}
	}
	clean, err := Run(NewCluster(4), wordCountJob(5, true), splits)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		splits[7] = append(splits[7], "x")
	}
	slow, err := Run(NewCluster(4), wordCountJob(5, true), splits)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Metrics.MapAttempts != int64(slow.Metrics.MapTasks) {
		t.Fatal("a straggler must not add attempts")
	}
	if slow.Metrics.SimulatedMap <= clean.Metrics.SimulatedMap {
		t.Fatalf("the oversized split did not stretch the map makespan: %v vs %v",
			slow.Metrics.SimulatedMap, clean.Metrics.SimulatedMap)
	}
}

func TestVirtualTimeScalesWithSlaves(t *testing.T) {
	// Many equal splits: simulated map time must shrink roughly linearly
	// in the number of slaves.
	splits := make([]records[string], 20)
	for i := range splits {
		lines := make([]string, 50)
		for j := range lines {
			lines[j] = "x y z"
		}
		splits[i] = lines
	}
	t1, _ := Run(NewCluster(1), wordCountJob(1, true), splits)
	t10, _ := Run(NewCluster(10), wordCountJob(1, true), splits)
	r := float64(t1.Metrics.SimulatedMap) / float64(t10.Metrics.SimulatedMap)
	if r < 5 || r > 15 {
		t.Fatalf("map speedup 1→10 slaves = %.2f, want ≈10", r)
	}
}

func TestMetricsAddAndString(t *testing.T) {
	var m Metrics
	m.Add(Metrics{MapTasks: 1, ShuffleBytes: 10, SimulatedMap: time.Second})
	m.Add(Metrics{MapTasks: 2, ShuffleBytes: 5, SimulatedReduce: time.Second})
	if m.MapTasks != 3 || m.ShuffleBytes != 15 || m.SimulatedTotal() != 2*time.Second {
		t.Fatalf("Add result: %+v", m)
	}
	if m.String() == "" {
		t.Fatal("String empty")
	}
}

func TestApproxSize(t *testing.T) {
	if approxSize("hello") != 5 {
		t.Fatal("string size")
	}
	if approxSize(int64(1)) != 8 || approxSize(int32(1)) != 4 || approxSize(true) != 1 || approxSize(int16(1)) != 2 {
		t.Fatal("scalar sizes")
	}
	if approxSize(struct{}{}) != 8 {
		t.Fatal("default size")
	}
}

func TestTaskContextFields(t *testing.T) {
	c := NewCluster(1)
	var phase string
	job := wordCountJob(1, false)
	job.Mapper = forwardStage[string, string, int64](func(ctx *TaskContext, line string, emit func(string, int64)) {
		phase = ctx.Phase
		if ctx.JobName != "wordcount" || ctx.Rand == nil {
			t.Error("bad task context")
		}
		emit(line, 1)
	})
	if _, err := Run(c, job, []records[string]{{"w"}}); err != nil {
		t.Fatal(err)
	}
	if phase != "map" {
		t.Fatalf("phase %q", phase)
	}
}

// TestBatchMapperLogicalCounters pins the two-count accounting rule, in
// process and through an executor. A combining stage reads its matches as
// map-output and combine-input records and its emitted pairs as
// combine-output and shuffled records, charged to the simulated map time,
// with one timeless combine span per task carrying the counts; a forwarding
// stage reads CombineIn = CombineOut = 0, shuffles every match and has no
// combine span — and neither has a combining job that matched nothing, the
// one case the counts cannot tell from forwarding. (The test keeps the name
// it had when the stage interface was called BatchMapper.)
func TestBatchMapperLogicalCounters(t *testing.T) {
	splits := remoteTestSplits()
	var total int64
	for _, split := range splits {
		total += int64(len(split))
	}
	// Every split holds all 53 residues the combining job keys by.
	pairs := int64(53 * len(splits))
	for _, c := range []struct {
		name                                    string
		job                                     *Job[records[int], int, int64, int64]
		splits                                  []records[int]
		records, combineIn, combineOut, shuffle int64
		combineSpans                            int
	}{
		{"combining", portableJob(1), splits, total, total, pairs, pairs, len(splits)},
		{"forwarding", shuffleHeavyJob(), splits, total, 0, 0, total, 0},
		{"combining nothing", portableJob(1), []records[int]{{}, {}}, 0, 0, 0, 0, 0},
	} {
		for backend, exec := range map[string]Executor{"inproc": nil, "executor": testInproc} {
			mem := NewMemTracer()
			cluster := remoteTestCluster()
			cluster.Tracer, cluster.Executor = mem, exec
			res, err := Run(cluster, c.job, c.splits)
			if err != nil {
				t.Fatal(err)
			}
			m := res.Metrics
			if m.MapInputRecords != c.records || m.MapOutputRecords != c.records || m.CombineInputRecs != c.combineIn ||
				m.CombineOutputRecs != c.combineOut || m.ShuffleRecords != c.shuffle {
				t.Errorf("%s/%s: map %d -> %d, combine %d -> %d, shuffle %d; want %d -> %d, %d -> %d, %d", c.name, backend,
					m.MapInputRecords, m.MapOutputRecords, m.CombineInputRecs, m.CombineOutputRecs, m.ShuffleRecords,
					c.records, c.records, c.combineIn, c.combineOut, c.shuffle)
			}
			durations := make([]time.Duration, len(c.splits))
			for task, split := range c.splits {
				durations[task] = cluster.Cost.TaskOverhead + time.Duration(len(split))*cluster.Cost.MapPerRecord
				if c.combineIn > 0 {
					durations[task] += time.Duration(len(split)) * cluster.Cost.CombinePerRecord
				}
			}
			if want := makespan(durations, cluster.Slaves); m.SimulatedMap != want {
				t.Errorf("%s/%s: simulated map %v, want %v", c.name, backend, m.SimulatedMap, want)
			}
			var combines int
			var spanIn, spanOut, sent int64
			for _, s := range mem.Spans() {
				switch s.Phase {
				case PhaseCombine:
					combines++
					spanIn, spanOut = spanIn+s.Records, spanOut+s.Out
					if s.Wall != 0 {
						t.Errorf("%s/%s: task %d has a combine span of %v, want no time of its own", c.name, backend, s.Task, s.Wall)
					}
				case PhaseShuffleSend:
					sent += s.Records
				}
			}
			if combines != c.combineSpans || spanIn != c.combineIn || spanOut != c.combineOut || sent != c.shuffle {
				t.Errorf("%s/%s: %d combine spans carrying %d -> %d, %d records sent; want %d spans, %d -> %d, %d sent", c.name, backend,
					combines, spanIn, spanOut, sent, c.combineSpans, c.combineIn, c.combineOut, c.shuffle)
			}
		}
	}
}

// TestTaskPanicReachesCaller: a panic on one of the engine's worker
// goroutines is re-raised where the caller of Run can recover it.
func TestTaskPanicReachesCaller(t *testing.T) {
	job := wordCountJob(1, false)
	job.Mapper = forwardStage[string, string, int64](func(_ *TaskContext, line string, _ func(string, int64)) {
		if line == "c" {
			panic("bad record")
		}
	})
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("mapper panic did not reach the caller of Run")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "bad record") || !strings.Contains(msg, "goroutine") {
			t.Fatalf("recovered %v, want the panic value and the worker's stack", r)
		}
	}()
	_, _ = Run(NewCluster(4), job, wcSplits)
}
