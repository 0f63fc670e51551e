package mapreduce

import (
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

// wordCount is the canonical test job.
type wcOut struct {
	Word  string
	Count int64
}

func wordCountJob(seed int64, withCombiner bool) *Job[string, string, int64, wcOut] {
	job := &Job[string, string, int64, wcOut]{
		Name: "wordcount",
		Seed: seed,
		Mapper: MapperFunc[string, string, int64](func(_ *TaskContext, line string, emit func(string, int64)) {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
		}),
		Reducer: ReducerFunc[string, int64, wcOut](func(_ *TaskContext, w string, vs []int64, emit func(wcOut)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(wcOut{w, sum})
		}),
	}
	if withCombiner {
		job.Combiner = CombinerFunc[string, int64](func(_ *TaskContext, _ string, vs []int64, emit func(int64)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(sum)
		})
	}
	return job
}

var wcSplits = [][]string{
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
	// A reducer that consumes randomness: sampling one value per key.
	mkJob := func() *Job[string, string, int64, wcOut] {
		return &Job[string, string, int64, wcOut]{
			Name: "pick",
			Seed: 42,
			Mapper: MapperFunc[string, string, int64](func(ctx *TaskContext, line string, emit func(string, int64)) {
				for _, w := range strings.Fields(line) {
					emit(w, int64(len(w))+ctx.Rand.Int63n(100))
				}
			}),
			Reducer: ReducerFunc[string, int64, wcOut](func(ctx *TaskContext, w string, vs []int64, emit func(wcOut)) {
				emit(wcOut{w, vs[ctx.Rand.Intn(len(vs))]})
			}),
		}
	}
	r1, err := Run(&Cluster{Slaves: 1, SlotsPerSlave: 1, Cost: ZeroCostModel()}, mkJob(), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Run(&Cluster{Slaves: 8, SlotsPerSlave: 2, Cost: ZeroCostModel()}, mkJob(), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedWC(r1.Output), sortedWC(r8.Output)) {
		t.Fatal("results differ across cluster sizes with the same seed")
	}
}

func TestSeedChangesRandomness(t *testing.T) {
	mk := func(seed int64) *Job[string, string, int64, wcOut] {
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
	if _, err := Run(&Cluster{Slaves: 0, SlotsPerSlave: 1}, job, wcSplits); err == nil {
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

func TestCustomPartitioner(t *testing.T) {
	job := wordCountJob(1, false)
	job.NumReducers = 2
	job.Partition = func(k string, n int) int {
		if k == "a" {
			return 0
		}
		return 1
	}
	res, err := Run(NewCluster(2), job, wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	// Output order is reducer-major: "a" (reducer 0) must come first.
	if res.Output[0].Word != "a" {
		t.Fatalf("first output %v, want word a", res.Output[0])
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

func TestVirtualTimeScalesWithSlaves(t *testing.T) {
	// Many equal splits: simulated map time must shrink roughly linearly
	// in the number of slaves.
	splits := make([][]string, 20)
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
	job.Mapper = MapperFunc[string, string, int64](func(ctx *TaskContext, line string, emit func(string, int64)) {
		phase = ctx.Phase
		if ctx.JobName != "wordcount" || ctx.Rand == nil {
			t.Error("bad task context")
		}
		emit(line, 1)
	})
	if _, err := Run(c, job, [][]string{{"w"}}); err != nil {
		t.Fatal(err)
	}
	if phase != "map" {
		t.Fatalf("phase %q", phase)
	}
}

func TestBadPartitionerPanics(t *testing.T) {
	job := wordCountJob(1, false)
	job.NumReducers = 2
	job.Partition = func(string, int) int { return 99 }
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range partitioner must panic")
		}
	}()
	_, _ = Run(NewCluster(1), job, wcSplits)
}

// wcFused is word count with in-mapper combining: one (word, count) pair per
// distinct word of the split, in sorted word order.
type wcFused struct{}

func (wcFused) MapSplit(_ *TaskContext, split []string, emit func(string, int64)) (matches int64) {
	counts := map[string]int64{}
	for _, line := range split {
		for _, w := range strings.Fields(line) {
			counts[w]++
			matches++
		}
	}
	words := make([]string, 0, len(counts))
	for w := range counts {
		words = append(words, w)
	}
	sort.Strings(words)
	for _, w := range words {
		emit(w, counts[w])
	}
	return matches
}

// TestBatchMapperLogicalCounters: a fused map + combine stage produces the
// output and reports the counters of the per-record mapper + combiner it
// stands in for, and the engine never calls the job's Mapper or Combiner.
func TestBatchMapperLogicalCounters(t *testing.T) {
	want, err := Run(NewCluster(2), wordCountJob(1, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	job := wordCountJob(1, false)
	job.Mapper = MapperFunc[string, string, int64](func(*TaskContext, string, func(string, int64)) {
		t.Error("per-record Mapper called on a BatchMapper job")
	})
	job.BatchMapper = wcFused{}
	mem := NewMemTracer()
	c := NewCluster(2)
	c.Tracer = mem
	got, err := Run(c, job, wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedWC(got.Output), sortedWC(want.Output)) {
		t.Errorf("fused output %v, want %v", sortedWC(got.Output), sortedWC(want.Output))
	}
	g, w := got.Metrics, want.Metrics
	if g.MapInputRecords != w.MapInputRecords || g.MapOutputRecords != w.MapOutputRecords ||
		g.CombineInputRecs != w.CombineInputRecs || g.CombineOutputRecs != w.CombineOutputRecs ||
		g.ShuffleRecords != w.ShuffleRecords || g.SimulatedMap != w.SimulatedMap {
		t.Errorf("fused counters %+v\nwant %+v", g, w)
	}
	// The combine span survives as the carrier of the logical counts, with
	// no time of its own.
	var combines int
	for _, s := range mem.Spans() {
		if s.Phase == PhaseCombine {
			combines++
			if s.Wall != 0 {
				t.Errorf("fused task %d has a combine span of %v, want empty", s.Task, s.Wall)
			}
		}
	}
	if combines != len(wcSplits) {
		t.Errorf("%d combine spans, want %d", combines, len(wcSplits))
	}
}

// TestTaskPanicReachesCaller: a panic on one of the engine's worker
// goroutines is re-raised where the caller of Run can recover it.
func TestTaskPanicReachesCaller(t *testing.T) {
	job := wordCountJob(1, false)
	job.Mapper = MapperFunc[string, string, int64](func(_ *TaskContext, line string, _ func(string, int64)) {
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
