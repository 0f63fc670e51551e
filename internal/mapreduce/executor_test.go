package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The tests here pin the executor seam's core contract: a job routed
// through the portable path — rebuilt from its Config, serialized splits
// and buckets, TaskSpec/TaskResult round-trips via NewInproc's executor — produces output,
// metrics and (under a frozen clock) span streams byte-identical to the
// in-process engine.

// remoteModCountJob is a portable test job exercising every seam the
// backends must agree on: a combining stage (the two logical counts), a
// custom KeyString, per-key reducer randomness (per-key reseeding), and
// Observe (custom histogram transport).
func remoteModCountJob() *Job[records[int], int, int64, int64] {
	return &Job[records[int], int, int64, int64]{
		Name: "remote-modcount",
		Mapper: sumStage[int, int]{observe: "combine_in", fn: func(_ *TaskContext, v int, emit func(int, int64)) {
			emit(v%53, int64(v))
		}},
		Reducer: ReducerFunc[int, int64, int64](func(ctx *TaskContext, k int, vs []int64, emit func(int64)) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			// The random draw pins per-key RNG seeding: any backend that
			// seeds differently produces different output.
			emit(sum + ctx.Rand.Int63n(1000))
		}),
		KeyString: func(k int) string { return "k" + strconv.Itoa(k) },
	}
}

func remoteTestSplits() []records[int] {
	splits := make([]records[int], 7)
	for s := range splits {
		rows := make([]int, 400+13*s)
		for i := range rows {
			rows[i] = s*1000 + i*3
		}
		splits[s] = rows
	}
	return splits
}

func remoteTestCluster() *Cluster {
	return &Cluster{
		Slaves: 3, Cost: DefaultCostModel(),
		Clock: FrozenClock(time.Unix(0, 0)),
	}
}

func portableJob(seed int64) *Job[records[int], int, int64, int64] {
	job := remoteModCountJob()
	job.Seed, job.Config, job.Codecs = seed, []byte("remote-modcount"), testCodecs
	return job
}

func TestRemoteExecutorMatchesInproc(t *testing.T) {
	splits := remoteTestSplits()
	want, err := Run(remoteTestCluster(), portableJob(42), splits)
	if err != nil {
		t.Fatal(err)
	}
	remote := remoteTestCluster()
	remote.Executor = testInproc
	got, err := Run(remote, portableJob(42), splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("remote output differs from in-process:\n in: %v\nout: %v", want.Output, got.Output)
	}
	if !reflect.DeepEqual(want.Metrics, got.Metrics) {
		t.Errorf("remote metrics differ from in-process:\n in: %+v\nout: %+v", want.Metrics, got.Metrics)
	}
}

// TestRemoteGoldenSpans locks the executor seam's observability contract:
// under a frozen clock the remote path's span file is byte-identical to the
// in-process one (NewInproc's executor reports no worker id, so not even
// normalization is needed).
func TestRemoteGoldenSpans(t *testing.T) {
	splits := remoteTestSplits()

	run := func(exec Executor) []byte {
		var buf bytes.Buffer
		c := remoteTestCluster()
		tr := NewJSONLTracer(&buf)
		c.Tracer = tr
		c.Executor = exec
		if _, err := Run(c, portableJob(11), splits); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if buf.Len() == 0 {
			t.Fatal("no spans written")
		}
		return buf.Bytes()
	}
	inproc := run(nil)
	remote := run(testInproc)
	if !bytes.Equal(inproc, remote) {
		t.Errorf("span files differ between in-process and remote execution:\n--- inproc ---\n%s\n--- remote ---\n%s", inproc, remote)
	}
}

// dyingExecutor answers like a worker pool some of whose workers died: the
// result of each task named in died ("map/2") comes back with that many
// failed attempts ahead of the one that succeeded — which is all the engine
// ever learns of a failure.
type dyingExecutor struct {
	Executor
	died map[string]int
	// gaveUp, when set, names a task whose attempt budget the pool spent.
	gaveUp string
}

func (e *dyingExecutor) Execute(spec *TaskSpec) (*TaskResult, error) {
	if task := fmt.Sprintf("%s/%d", spec.Phase, spec.Task); task == e.gaveUp {
		return nil, fmt.Errorf("worker: %s failed after 3 attempts, last on w-dead2: worker exited mid-task", task)
	}
	res, err := e.Executor.Execute(spec)
	if err == nil {
		res.Worker = "w-live"
		for i := 0; i < e.died[fmt.Sprintf("%s/%d", spec.Phase, spec.Task)]; i++ {
			res.FailedAttempts = append(res.FailedAttempts,
				TaskAttempt{Worker: fmt.Sprintf("w-dead%d", i), Err: "worker exited mid-task"})
		}
	}
	return res, err
}

// dyingCluster is remoteTestCluster on a pool where three attempts died: two
// of map task 2, one of reduce task 1.
func dyingCluster() *Cluster {
	c := remoteTestCluster()
	c.Executor = &dyingExecutor{Executor: testInproc, died: map[string]int{"map/2": 2, "reduce/1": 1}}
	return c
}

// TestFaultsDoNotChangeOutput: tasks are deterministic, so an attempt that
// died and ran again elsewhere costs an attempt, never correctness — and
// never virtual time: the clock charges a task once, for its counts.
func TestFaultsDoNotChangeOutput(t *testing.T) {
	splits := remoteTestSplits()
	clean, err := Run(remoteTestCluster(), portableJob(7), splits)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(dyingCluster(), portableJob(7), splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(clean.Output, faulty.Output) {
		t.Fatal("failed attempts changed job output")
	}
	cm, fm := clean.Metrics, faulty.Metrics
	if cm.MapAttempts != int64(cm.MapTasks) || cm.ReduceAttempts != int64(cm.ReduceTasks) {
		t.Errorf("in-process: attempts %d/%d for %d/%d tasks, want one each", cm.MapAttempts, cm.ReduceAttempts, cm.MapTasks, cm.ReduceTasks)
	}
	if fm.MapAttempts != int64(fm.MapTasks)+2 || fm.ReduceAttempts != int64(fm.ReduceTasks)+1 {
		t.Errorf("attempts %d map / %d reduce for %d / %d tasks, want the 2 + 1 that died on top",
			fm.MapAttempts, fm.ReduceAttempts, fm.MapTasks, fm.ReduceTasks)
	}
	if fm.SimulatedTotal() != cm.SimulatedTotal() {
		t.Errorf("simulated time %v with failed attempts, %v without: the virtual clock models no failures", fm.SimulatedTotal(), cm.SimulatedTotal())
	}
}

// TestFaultsAbortAfterMaxAttempts: the attempt budget is the executor's; when
// it gives up on a task the job aborts with its error, naming job and task.
func TestFaultsAbortAfterMaxAttempts(t *testing.T) {
	c := remoteTestCluster()
	c.Executor = &dyingExecutor{Executor: testInproc, gaveUp: "reduce/1"}
	_, err := Run(c, portableJob(1), remoteTestSplits())
	for _, want := range []string{`job "remote-modcount"`, "reduce task 1", "failed after 3 attempts"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want an abort naming %q, got %v", want, err)
		}
	}
}

// countingExecutor counts the specs an executor is handed.
type countingExecutor struct {
	Executor
	specs atomic.Int64
}

func (e *countingExecutor) Execute(spec *TaskSpec) (*TaskResult, error) {
	e.specs.Add(1)
	return e.Executor.Execute(spec)
}

// TestCodeclessJobOnExecutorIsAnError: an executor's workers move a job's
// payloads with the codecs it carries, so a job without them on a cluster
// with an executor cannot run there — and does not quietly run here instead:
// Run returns an error naming the job and the executor before any task
// starts.
func TestCodeclessJobOnExecutorIsAnError(t *testing.T) {
	exec := &countingExecutor{Executor: testInproc}
	c := remoteTestCluster()
	c.Executor = exec
	job := remoteModCountJob() // no Codecs set
	res, err := Run(c, job, remoteTestSplits())
	if err == nil {
		t.Fatalf("codec-less job ran on an executor cluster: %d output records", len(res.Output))
	}
	for _, want := range []string{job.Name, exec.Name(), "codecs"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
	if n := exec.specs.Load(); n != 0 {
		t.Errorf("%d tasks reached the executor", n)
	}
	// The same job is fine where nothing has to travel.
	if _, err := Run(remoteTestCluster(), job, remoteTestSplits()); err != nil {
		t.Errorf("codec-less job without an executor: %v", err)
	}
}

// TestRunnerCacheIsBounded: an executor's job cache is a fixed-size LRU.
// One more distinct config than it holds leaves it full, not larger, and a
// spec whose job was evicted is rebuilt and executes.
func TestRunnerCacheIsBounded(t *testing.T) {
	specs, _ := sampleTasks(t)
	spec := func(i int) *TaskSpec {
		s := *specs[1] // a map spec that executes
		s.Config = []byte(fmt.Sprintf("cfg-%d", i))
		return &s
	}
	e := NewInproc(func([]byte) (*Job[records[int], int, int64, int64], error) { return portableJob(0), nil })
	in := e.(*inproc[records[int], int, int64, int64])
	cached := func() int {
		in.mu.Lock()
		defer in.mu.Unlock()
		return len(in.cache)
	}
	holds := func(s *TaskSpec) bool {
		in.mu.Lock()
		defer in.mu.Unlock()
		for _, b := range in.cache {
			if b.name == s.Job && bytes.Equal(b.config, s.Config) {
				return true
			}
		}
		return false
	}
	for i := 0; i <= runnerCacheSize; i++ {
		if _, err := e.Execute(spec(i)); err != nil {
			t.Fatal(err)
		}
		// Keep config 0 the most recently used but one: it must survive.
		if _, err := e.Execute(spec(0)); err != nil {
			t.Fatal(err)
		}
	}
	if n := cached(); n != runnerCacheSize {
		t.Fatalf("%d jobs cached after %d distinct configs, want %d", n, runnerCacheSize+1, runnerCacheSize)
	}
	if !holds(spec(0)) || !holds(spec(runnerCacheSize)) {
		t.Error("the two most recently used configs are not cached")
	}
	if holds(spec(1)) {
		t.Error("the least recently used config was not the one evicted")
	}
	want, err := e.Execute(spec(0))
	if err != nil {
		t.Fatal(err)
	}
	got, err := e.Execute(spec(1)) // evicted: rebuilt
	if err != nil {
		t.Fatalf("re-sent evicted config: %v", err)
	}
	if !reflect.DeepEqual(got.Buckets, want.Buckets) {
		t.Error("a rebuilt job produced different buckets")
	}
	if n := cached(); n != runnerCacheSize {
		t.Errorf("%d jobs cached after the rebuild, want %d", n, runnerCacheSize)
	}
}

// TestInprocRefusesUnknownConfig: a config the builder refuses, or a job it
// builds without codecs, is a task error naming the job (and the builder's
// reason) before any payload is touched.
func TestInprocRefusesUnknownConfig(t *testing.T) {
	spec := &TaskSpec{Job: "x", Config: []byte("no-such-job"), Phase: "map", NumReducers: 1}
	_, err := testInproc.Execute(spec)
	for _, want := range []string{`job "x"`, "no-such-job"} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("want an error naming %q, got %v", want, err)
		}
	}
	codecless := NewInproc(func([]byte) (*Job[records[int], int, int64, int64], error) { return remoteModCountJob(), nil })
	if _, err := codecless.Execute(spec); err == nil || !strings.Contains(err.Error(), `job "x"`) || !strings.Contains(err.Error(), "codecs") {
		t.Fatalf("want an error naming the job built without codecs, got %v", err)
	}
}

// TestExecuteTaskRejectsBadSpec: a decoded spec is outside input. Counts the
// task cores divide, index or allocate by are checked before any of that,
// and a bad one is a task error — not a panic that takes the worker down.
func TestExecuteTaskRejectsBadSpec(t *testing.T) {
	specs, _ := sampleTasks(t) // [1] and [2]: a map and a reduce spec that execute
	for name, mutate := range map[string]func(m, r *TaskSpec) *TaskSpec{
		"zero reducers":       func(m, _ *TaskSpec) *TaskSpec { m.NumReducers = 0; return m },
		"negative reducers":   func(m, _ *TaskSpec) *TaskSpec { m.NumReducers = -1; return m },
		"overflowed reducers": func(m, _ *TaskSpec) *TaskSpec { m.NumReducers = int(^uint64(0) >> 2); return m },
		"negative task":       func(m, _ *TaskSpec) *TaskSpec { m.Task = -1; return m },
		"too many buckets":    func(_, r *TaskSpec) *TaskSpec { r.Buckets = make([][]byte, maxSpecTasks+1); return r },
	} {
		m, r := *specs[1], *specs[2]
		if _, err := testInproc.Execute(mutate(&m, &r)); !errors.Is(err, ErrInvalidSpec) {
			t.Errorf("%s: %v, want ErrInvalidSpec", name, err)
		}
	}
}

// shortResultExecutor answers map specs the way a skewed or hostile peer
// might: a well-formed result whose per-reducer slices are one entry short.
type shortResultExecutor struct{ Executor }

func (e *shortResultExecutor) Execute(spec *TaskSpec) (*TaskResult, error) {
	res, err := e.Executor.Execute(spec)
	if err == nil && spec.Phase == "map" && spec.Task == 2 {
		res.Worker = "w-short"
		res.Buckets = res.Buckets[:len(res.Buckets)-1]
		res.Counters.BucketSizes = res.Counters.BucketSizes[:len(res.Counters.BucketSizes)-1]
	}
	return res, err
}

// TestShortMapResultFailsJob: the coordinator indexes a map result by
// reducer, so a reply with too few buckets or sizes must fail the job with
// an error naming task and worker — not panic an engine goroutine.
func TestShortMapResultFailsJob(t *testing.T) {
	c := remoteTestCluster()
	c.Executor = &shortResultExecutor{testInproc}
	_, err := Run(c, portableJob(1), remoteTestSplits())
	if err == nil {
		t.Fatal("short map result went unnoticed")
	}
	for _, want := range []string{"map task 2", "w-short", "buckets"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}
