package worker_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/worker"
)

// newTCP starts a TCP executor with n local workers attached.
func newTCP(t testing.TB, n int, cfg worker.TCPConfig) *worker.TCPExecutor {
	t.Helper()
	exec, err := worker.NewTCPExecutor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	exec.SpawnLocal(n)
	if err := exec.AwaitWorkers(n, 10*time.Second); err != nil {
		exec.Close()
		t.Fatal(err)
	}
	return exec
}

// mapBucketCounter forwards to a worker pool and sums the bucket payload
// bytes its map results carry back.
type mapBucketCounter struct {
	mapreduce.Executor
	bytes atomic.Int64
}

func (c *mapBucketCounter) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	res, err := c.Executor.Execute(spec)
	if err == nil && spec.Phase == "map" {
		for _, b := range res.Buckets {
			c.bytes.Add(int64(len(b)))
		}
	}
	return res, err
}

// TestDirectShuffleZeroRoutedBytes: on a tcp pool the job's answer and
// metrics equal the in-process engine's, every bucket payload a map result
// carried is counted through the coordinator, and the worker-to-worker byte
// counter stays at zero.
func TestDirectShuffleZeroRoutedBytes(t *testing.T) {
	exec := newTCP(t, 3, worker.TCPConfig{})
	defer exec.Close()
	checkShuffleRidesTaskFrames(t, exec)
}

// TestSubprocessShuffleDirect: worker child processes dial the coordinator
// like every other remote worker, so their buckets ride the task frames the
// same way: answer and metrics equal in-process, every bucket byte counted
// through the coordinator, none worker to worker.
func TestSubprocessShuffleDirect(t *testing.T) {
	exec := newSubprocess(t, 2, nil)
	defer exec.Close()
	checkShuffleRidesTaskFrames(t, exec)
}

// checkShuffleRidesTaskFrames runs one MR-SQE job on exec and checks it
// against the in-process engine and against the bucket bytes its map
// results brought back.
func checkShuffleRidesTaskFrames(t *testing.T, exec interface {
	mapreduce.Executor
	ShuffleStats() worker.ShuffleStats
}) {
	t.Helper()
	splits := testPopulation(t)
	want, wantMet := runSQE(t, nil, splits)
	counted := &mapBucketCounter{Executor: exec}
	got, gotMet := runSQE(t, counted, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if !reflect.DeepEqual(wantMet, gotMet) {
		t.Errorf("metrics differ from in-process:\n in: %+v\nout: %+v", wantMet, gotMet)
	}
	st := exec.ShuffleStats()
	if st.RoutedBucketBytes == 0 || st.RoutedBucketBytes != counted.bytes.Load() {
		t.Errorf("coordinator carried %d bucket bytes, want the %d (> 0) the map results brought",
			st.RoutedBucketBytes, counted.bytes.Load())
	}
	if st.DirectBytes != 0 {
		t.Errorf("DirectBytes = %d, want 0: no bucket travels worker to worker", st.DirectBytes)
	}
}

// killBeforeReduce forwards to a subprocess pool and kills child i when the
// first reduce spec is dispatched: the map phase is over and its buckets
// are all on the coordinator.
type killBeforeReduce struct {
	*worker.SubprocessExecutor
	i    int
	once sync.Once
}

func (k *killBeforeReduce) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	if spec.Phase == "reduce" {
		k.once.Do(func() { k.Kill(k.i) })
	}
	return k.SubprocessExecutor.Execute(spec)
}

// TestSubprocessKilledHoldingBuckets kills a real worker process between the
// map and the reduce phase. The coordinator, not the dead worker, holds every
// bucket, so a reduce attempt that dies with sp-1 is an ordinary retry on the
// survivor: the job ends with the in-process answer, no map task runs again,
// every failed span is sp-1's, and each one is an extra reduce attempt.
func TestSubprocessKilledHoldingBuckets(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	sub := newSubprocess(t, 2, nil)
	defer sub.Close()
	c := testCluster(&killBeforeReduce{SubprocessExecutor: sub, i: 1})
	tr := mapreduce.NewMemTracer()
	c.Tracer = tr
	got, met, err := runSQEerr(t, c, splits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("answer after a worker died before the reduce phase differs from in-process:\n in: %v\nout: %v", want, got)
	}
	failed := failedSpans(tr)
	t.Logf("%d reduce attempts died with sp-1", len(failed))
	if met.MapAttempts != int64(met.MapTasks) || met.ReduceAttempts != int64(met.ReduceTasks+len(failed)) {
		t.Errorf("attempts: map %d of %d tasks, reduce %d of %d with %d failed spans; want no extra map attempt and one extra reduce attempt per failed span",
			met.MapAttempts, met.MapTasks, met.ReduceAttempts, met.ReduceTasks, len(failed))
	}
	for _, s := range failed {
		if s.Phase != mapreduce.PhaseReduce || s.Worker != "sp-1" {
			t.Errorf("failed span %+v, want a reduce attempt on sp-1", s)
		}
	}
}

// TestSubprocessChildExitsBeforeRegistering: a child that dies without ever
// dialing the coordinator fails the executor's construction at once, with an
// error naming the worker and its exit status — not after a lease timeout of
// silence.
func TestSubprocessChildExitsBeforeRegistering(t *testing.T) {
	start := time.Now()
	exec, err := worker.NewSubprocessExecutor(worker.SubprocessConfig{
		Workers: 2, Command: []string{"sh", "-c", "exit 7"},
	})
	if err == nil {
		exec.Close()
		t.Fatal("a pool whose children exit at once was constructed")
	}
	for _, part := range []string{"sp-", "exit status 7", "before registering"} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("error %q does not mention %q", err, part)
		}
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("construction failed after %v: that is the lease timeout, not a fast failure", d)
	}
}

// TestDirectShuffleCrashFallback: a worker that exits on its first task — a
// map task, so its buckets never reach the coordinator — costs that task a
// retry on another worker, and the job still ends with the in-process
// answer and the full 7/9 fill.
func TestDirectShuffleCrashFallback(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocalOpts(1, worker.ServeOptions{ExitAfter: 1})
	exec.SpawnLocalOpts(2, worker.ServeOptions{})
	if err := exec.AwaitWorkers(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}

	got, _ := runSQE(t, exec, splits)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("answer after a worker crash differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if len(got.Strata[0]) != 7 || len(got.Strata[1]) != 9 {
		t.Errorf("per-stratum fill %d/%d after crash, want 7/9",
			len(got.Strata[0]), len(got.Strata[1]))
	}
}

// BenchmarkShuffleRouted runs one MR-SQE job per op on a tcp pool and
// reports coordB/op, the bucket bytes that rode the task frames through the
// coordinator, at a tiny-bucket and a heavy-bucket population.
func BenchmarkShuffleRouted(b *testing.B) {
	for _, size := range []int{1, 50} {
		splits := scaledPopulation(b, size)
		b.Run(fmt.Sprintf("pop=%d", size*900), func(b *testing.B) {
			exec := newTCP(b, 3, worker.TCPConfig{})
			defer exec.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runSQE(b, exec, splits)
			}
			b.ReportMetric(float64(exec.ShuffleStats().RoutedBucketBytes)/float64(b.N), "coordB/op")
		})
	}
}

// scaledPopulation is testPopulation's distribution at size× the tuples, so
// the shuffle benchmark can show both the tiny-bucket and the heavy-bucket
// regime.
func scaledPopulation(t testing.TB, size int) []dataset.Split {
	t.Helper()
	r := dataset.NewRelation(testSchema())
	id := int64(0)
	for i := 0; i < 400*size; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{1, id % 1001}})
		id++
	}
	for i := 0; i < 500*size; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{0, id % 1001}})
		id++
	}
	splits, err := dataset.Partition(r, 6, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}
