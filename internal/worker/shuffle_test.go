package worker_test

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
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

// TestDirectShuffleZeroRoutedBytes pins the tentpole contract: with direct
// shuffle engaged (the tcp default), the job's answer and metrics are
// byte-identical to the in-process engine, yet the coordinator carries zero
// bucket payload bytes — everything travels worker-to-worker.
func TestDirectShuffleZeroRoutedBytes(t *testing.T) {
	splits := testPopulation(t)
	want, wantMet := runSQE(t, nil, splits)

	exec := newTCP(t, 3, worker.TCPConfig{})
	defer exec.Close()
	got, gotMet := runSQE(t, exec, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("direct-shuffle answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if !reflect.DeepEqual(wantMet, gotMet) {
		t.Errorf("direct-shuffle metrics differ from in-process:\n in: %+v\nout: %+v", wantMet, gotMet)
	}
	st := exec.ShuffleStats()
	if st.RoutedBucketBytes != 0 {
		t.Errorf("coordinator carried %d bucket bytes on the direct path, want 0", st.RoutedBucketBytes)
	}
	if st.DirectBytes == 0 {
		t.Error("DirectBytes = 0: no bucket traveled worker-to-worker")
	}
	if st.Lost != 0 {
		t.Errorf("Lost = %d direct shuffles on a healthy pool, want 0", st.Lost)
	}
}

// TestSubprocessShuffleDirect: worker child processes dial the coordinator
// like every other remote worker, so they open shuffle receivers and a
// healthy run moves every bucket worker-to-worker — the coordinator carries
// none.
func TestSubprocessShuffleDirect(t *testing.T) {
	splits := testPopulation(t)
	exec := newSubprocess(t, 2, nil)
	defer exec.Close()
	runSQE(t, exec, splits)

	st := exec.ShuffleStats()
	if st.DirectBytes == 0 {
		t.Error("subprocess DirectBytes = 0: no bucket traveled worker-to-worker")
	}
	if st.RoutedBucketBytes != 0 || st.Lost != 0 {
		t.Errorf("subprocess pool: coordinator carried %d bucket bytes, %d shuffles lost; want 0 and 0 on a healthy run",
			st.RoutedBucketBytes, st.Lost)
	}
}

// killBeforeReduce forwards to a subprocess pool and kills child i when the
// first reduce attempt is about to be dispatched: the map phase is over, so
// the child dies holding the buckets its peers pushed to it.
type killBeforeReduce struct {
	*worker.SubprocessExecutor
	i    int
	once sync.Once
}

func (k *killBeforeReduce) ExecuteOn(w string, spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	k.once.Do(func() { k.Kill(k.i) })
	return k.SubprocessExecutor.ExecuteOn(w, spec)
}

// TestSubprocessKilledHoldingBuckets kills a real worker process between the
// map and the reduce phase. Two workers share three reducers round-robin, so
// sp-1 holds reducer 1's buckets and nothing else: that reducer's attempt
// dies with the process (a lost shuffle), the coordinator replays the map
// tasks and reduces routed on the survivor, and the job ends with the
// in-process answer, exactly one extra attempt, and the death as a failed
// reduce span tagged sp-1.
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
		t.Errorf("answer after a worker died holding buckets differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if met.MapAttempts != int64(met.MapTasks) || met.ReduceAttempts != int64(met.ReduceTasks)+1 {
		t.Errorf("attempts: map %d of %d tasks, reduce %d of %d; want no extra map attempt and exactly one extra reduce attempt",
			met.MapAttempts, met.MapTasks, met.ReduceAttempts, met.ReduceTasks)
	}
	failed := failedSpans(tr)
	if len(failed) != 1 || failed[0].Phase != mapreduce.PhaseReduce || failed[0].Task != 1 || failed[0].Worker != "sp-1" {
		t.Errorf("failed spans %+v, want one: reduce task 1 on sp-1", failed)
	}
	if st := sub.ShuffleStats(); st.Lost != 1 || st.RoutedBucketBytes == 0 {
		t.Errorf("shuffle stats %+v, want one lost shuffle replayed through the coordinator", st)
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

// TestDirectShuffleCrashFallback kills a direct-shuffle worker on its first
// task: map re-execution, lost-shuffle detection and the routed replay path
// must still converge on the in-process answer.
func TestDirectShuffleCrashFallback(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	exec, err := worker.NewTCPExecutor(worker.TCPConfig{
		ShuffleTimeout: 2 * time.Second,
	})
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
		t.Errorf("answer after mid-shuffle crash differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if len(got.Strata[0]) != 7 || len(got.Strata[1]) != 9 {
		t.Errorf("per-stratum fill %d/%d after crash, want 7/9",
			len(got.Strata[0]), len(got.Strata[1]))
	}
}

// BenchmarkShuffleDirect runs one MR-SQE job per op on a tcp pool and
// reports where its shuffle bytes traveled: directB/op between workers,
// coordB/op through the coordinator (0 on a healthy pool). The routed arm it
// was once compared against went with the option that selected it; its
// numbers are dated history in EXPERIMENTS.md.
func BenchmarkShuffleDirect(b *testing.B) {
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
			st := exec.ShuffleStats()
			b.ReportMetric(float64(st.RoutedBucketBytes)/float64(b.N), "coordB/op")
			b.ReportMetric(float64(st.DirectBytes)/float64(b.N), "directB/op")
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

// TestDirectShuffleMixedPool: a pool where one worker could not open its
// shuffle receiver (it serves routed-only) still completes with the
// in-process answer — the plan never places a reducer on the receiver-less
// worker, and the map attempts it runs push their buckets like any other.
func TestDirectShuffleMixedPool(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocalOpts(1, worker.ReceiverlessOptions()) // tcp-1
	exec.SpawnLocalOpts(2, worker.ServeOptions{})        // tcp-2, tcp-3
	if err := exec.AwaitWorkers(3, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	plan := exec.PlanShuffle("probe", 6)
	if plan == nil {
		t.Fatal("no shuffle plan with two receiver-capable workers attached")
	}
	for r, w := range plan.Workers {
		if w != "tcp-2" && w != "tcp-3" {
			t.Errorf("reducer %d planned on %q, want only the workers that announced a receiver", r, w)
		}
	}

	got, _ := runSQE(t, exec, splits)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("mixed-pool answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if st := exec.ShuffleStats(); st.Lost != 0 || st.DirectBytes == 0 {
		t.Errorf("shuffle stats %+v, want a direct shuffle with nothing lost", st)
	}
}
