package worker_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
	"repro/internal/worker"
)

// TestMain doubles as the worker entry point: the subprocess executor in
// these tests re-executes the test binary itself as "<binary> -connect
// <addr>", and the environment flag flips the child into a protocol worker
// before any test machinery (flag parsing included) runs — the strata CLI's
// "worker -connect" subcommand in three lines. Workers of either kind run
// the panicking job of panic_test.go beside the production one.
func TestMain(m *testing.M) {
	worker.SetInproc(testInproc{stratified.Inproc})
	if os.Getenv("STRATA_TEST_WORKER") == "1" {
		if err := worker.ServeTCP(os.Args[len(os.Args)-1], worker.ServeOptions{}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// newSubprocess starts a pool of worker children running this test binary.
// extra plants additional environment entries on the i-th worker (the chaos
// hook).
func newSubprocess(t testing.TB, workers int, extra func(i int) []string) *worker.SubprocessExecutor {
	t.Helper()
	exec, err := worker.NewSubprocessExecutor(worker.SubprocessConfig{
		Workers: workers,
		Command: []string{os.Args[0]},
		ExtraEnv: func(i int) []string {
			env := []string{"STRATA_TEST_WORKER=1"}
			if extra != nil {
				env = append(env, extra(i)...)
			}
			return env
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return exec
}

func testSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
}

// testPopulation builds 400 men and 500 women over 6 splits.
func testPopulation(t testing.TB) []dataset.Split {
	t.Helper()
	r := dataset.NewRelation(testSchema())
	id := int64(0)
	for i := 0; i < 400; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{1, id % 1001}})
		id++
	}
	for i := 0; i < 500; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{0, id % 1001}})
		id++
	}
	splits, err := dataset.Partition(r, 6, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

func testQuery() *query.SSD {
	return query.NewSSD("workers",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 7},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 9},
	)
}

// testCluster freezes the clock so wall-time fields can't differ between
// backends; exec == nil is the in-process reference.
func testCluster(exec mapreduce.Executor) *mapreduce.Cluster {
	return &mapreduce.Cluster{
		Slaves: 3, SlotsPerSlave: 2,
		Cost:     mapreduce.DefaultCostModel(),
		Clock:    mapreduce.FrozenClock(time.Unix(0, 0)),
		Executor: exec,
	}
}

func runSQE(t testing.TB, exec mapreduce.Executor, splits []dataset.Split) (*query.Answer, mapreduce.Metrics) {
	t.Helper()
	ans, met, err := stratified.RunSQE(testCluster(exec), testQuery(), testSchema(), splits,
		stratified.Options{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return ans, met
}

// TestSubprocessMatchesInproc: the same job on worker child processes
// produces the identical sample and metrics as the in-process engine.
func TestSubprocessMatchesInproc(t *testing.T) {
	splits := testPopulation(t)
	want, wantMet := runSQE(t, nil, splits)

	exec := newSubprocess(t, 3, nil)
	defer exec.Close()
	got, gotMet := runSQE(t, exec, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("subprocess answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if !reflect.DeepEqual(wantMet, gotMet) {
		t.Errorf("subprocess metrics differ from in-process:\n in: %+v\nout: %+v", wantMet, gotMet)
	}
}

// TestTCPMatchesInproc: workers registered over TCP produce the identical
// sample.
func TestTCPMatchesInproc(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)

	exec := newTCP(t, 2, worker.TCPConfig{})
	defer exec.Close()
	got, _ := runSQE(t, exec, splits)

	if !reflect.DeepEqual(want, got) {
		t.Errorf("tcp answer differs from in-process:\n in: %v\nout: %v", want, got)
	}
}

// TestSeedDeterminismAcrossBackends is the sampling contract since the map
// task became one fused classify-and-sample scan: an answer is a pure
// function of (seed, splits, query list), so the same seed gives the same
// individuals in-process, on subprocess workers and on tcp workers —
// for MR-SQE, for an 8-query MR-MQE pass with an exclusion set, and for
// MR-CPS, whose four jobs (MR-MQE, limits, Q′, residual) all run on the
// workers: a three-survey MSSD whose fractional LP optimum leaves rounding
// deficits for the residual phase.
func TestSeedDeterminismAcrossBackends(t *testing.T) {
	splits := testPopulation(t)
	var queries []*query.SSD
	for i := 0; i < 8; i++ {
		cut := 100 + 100*i
		queries = append(queries, query.NewSSD(fmt.Sprintf("q%d", i),
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income < %d and gender = 1", cut)), Freq: 3 + i},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income >= %d", cut)), Freq: 12 - i},
		))
	}
	exclude := map[int64]struct{}{3: {}, 401: {}, 899: {}}
	opts := stratified.Options{Seed: 7, Exclude: exclude}
	// Sharing between two surveys is cheap, between three prohibitive, a
	// solo interview dear: odd frequencies make the LP optimum fractional.
	mssd := query.NewMSSD(
		query.TableCosts{
			Interview: []float64{3, 3, 3},
			Shared: map[query.Tau]float64{
				query.NewTau(0, 1): 1, query.NewTau(0, 2): 1, query.NewTau(1, 2): 1,
				query.NewTau(0, 1, 2): 100,
			},
		},
		query.NewSSD("A",
			query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 5},
			query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 7}),
		query.NewSSD("B",
			query.Stratum{Cond: predicate.MustParse("income < 500"), Freq: 5},
			query.Stratum{Cond: predicate.MustParse("income >= 500"), Freq: 3}),
		query.NewSSD("C",
			query.Stratum{Cond: predicate.MustParse("income < 250 or income >= 750"), Freq: 5},
			query.Stratum{Cond: predicate.MustParse("income >= 250 and income < 750"), Freq: 5}),
	)
	type answers struct {
		sqe *query.Answer
		mqe query.MultiAnswer
		cps *cps.Result
	}
	run := func(exec mapreduce.Executor) answers {
		sqe, _, err := stratified.RunSQE(testCluster(exec), testQuery(), testSchema(), splits, opts)
		if err != nil {
			t.Fatal(err)
		}
		mqe, _, err := stratified.RunMQE(testCluster(exec), queries, testSchema(), splits, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := cps.Run(testCluster(exec), mssd, testSchema(), splits, cps.Options{Seed: 7, Exclude: exclude})
		if err != nil {
			t.Fatal(err)
		}
		return answers{sqe, mqe, res}
	}
	want := run(nil)
	for qi, q := range queries {
		for k, s := range q.Strata {
			if got := len(want.mqe[qi].Strata[k]); got != s.Freq {
				t.Errorf("in-process query %d stratum %d: %d tuples, want %d", qi, k, got, s.Freq)
			}
		}
	}
	if want.cps.ResidualTuples == 0 {
		t.Error("the MSSD left no deficit: the residual job is not exercised")
	}

	sub := newSubprocess(t, 2, nil)
	defer sub.Close()
	tcp := newTCP(t, 2, worker.TCPConfig{})
	defer tcp.Close()
	for name, exec := range map[string]mapreduce.Executor{"subprocess": sub, "tcp": tcp} {
		got := run(exec)
		if !reflect.DeepEqual(want.sqe, got.sqe) {
			t.Errorf("%s MR-SQE answer differs from in-process:\n in: %v\nout: %v", name, want.sqe, got.sqe)
		}
		if !reflect.DeepEqual(want.mqe, got.mqe) {
			t.Errorf("%s MR-MQE answers differ from in-process", name)
		}
		if !reflect.DeepEqual(want.cps.Answers, got.cps.Answers) || !reflect.DeepEqual(want.cps.Initial, got.cps.Initial) {
			t.Errorf("%s MR-CPS answers differ from in-process", name)
		}
		if !reflect.DeepEqual(want.cps.PlannedPerSurvey, got.cps.PlannedPerSurvey) ||
			!reflect.DeepEqual(want.cps.ResidualPerSurvey, got.cps.ResidualPerSurvey) {
			t.Errorf("%s MR-CPS plan delivery differs from in-process: planned %v / %v, residual %v / %v", name,
				want.cps.PlannedPerSurvey, got.cps.PlannedPerSurvey, want.cps.ResidualPerSurvey, got.cps.ResidualPerSurvey)
		}
		for qi, q := range mssd.Queries {
			for k, s := range q.Strata {
				if n := len(got.cps.Answers[qi].Strata[k]); n != s.Freq {
					t.Errorf("%s MR-CPS survey %d stratum %d: %d tuples, want %d", name, qi, k, n, s.Freq)
				}
			}
		}
	}
}

// TestNaiveDeterminismAcrossBackends is TestSeedDeterminismAcrossBackends
// for the Figure 1 baseline, the one job whose map stage forwards instead of
// sampling: with an exclusion set, the same seed gives the same individuals
// and the same metrics — every match shuffled, nothing combined — in-process,
// through stratified.Inproc, on subprocess workers and on tcp workers.
func TestNaiveDeterminismAcrossBackends(t *testing.T) {
	splits := testPopulation(t)
	opts := stratified.Options{Seed: 7, Naive: true, Exclude: map[int64]struct{}{3: {}, 401: {}, 899: {}}}
	run := func(exec mapreduce.Executor) (*query.Answer, mapreduce.Metrics) {
		ans, met, err := stratified.RunSQE(testCluster(exec), testQuery(), testSchema(), splits, opts)
		if err != nil {
			t.Fatal(err)
		}
		return ans, met
	}
	want, wantMet := run(nil)
	if wantMet.ShuffleRecords != 897 || wantMet.MapOutputRecords != 897 || wantMet.CombineInputRecs != 0 || wantMet.CombineOutputRecs != 0 {
		t.Errorf("in-process: %d matches, %d shuffled, combine %d -> %d; want all 897 eligible tuples forwarded, none combined",
			wantMet.MapOutputRecords, wantMet.ShuffleRecords, wantMet.CombineInputRecs, wantMet.CombineOutputRecs)
	}
	sub := newSubprocess(t, 2, nil)
	defer sub.Close()
	tcp := newTCP(t, 2, worker.TCPConfig{})
	defer tcp.Close()
	for name, exec := range map[string]mapreduce.Executor{"executor": stratified.Inproc, "subprocess": sub, "tcp": tcp} {
		got, gotMet := run(exec)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s naive answer differs from in-process:\n in: %v\nout: %v", name, want, got)
		}
		if !reflect.DeepEqual(wantMet, gotMet) {
			t.Errorf("%s naive metrics differ from in-process:\n in: %+v\nout: %+v", name, wantMet, gotMet)
		}
	}
}

// TestWorkerCrashRecovery kills a worker mid-job and checks the coordinator
// reassigns its lease without changing the sample: worker 0 aborts on its
// first leased task, so the job must finish on the survivors with exactly
// one extra attempt, and the per-stratum fill must still be exact. A pool
// nobody dies in makes exactly one attempt per task.
func TestWorkerCrashRecovery(t *testing.T) {
	splits := testPopulation(t)
	want, wantMet := runSQE(t, nil, splits)
	if wantMet.MapAttempts != int64(wantMet.MapTasks) || wantMet.ReduceAttempts != int64(wantMet.ReduceTasks) {
		t.Errorf("in-process: %d map attempts for %d tasks, %d reduce attempts for %d: nothing died",
			wantMet.MapAttempts, wantMet.MapTasks, wantMet.ReduceAttempts, wantMet.ReduceTasks)
	}

	exec := newSubprocess(t, 2, func(i int) []string {
		if i == 0 {
			return []string{worker.ChaosExitEnv + "=1"}
		}
		return nil
	})
	defer exec.Close()
	c := testCluster(exec)
	tr := mapreduce.NewMemTracer()
	c.Tracer = tr
	got, met, err := runSQEerr(t, c, splits)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(want, got) {
		t.Errorf("answer after crash recovery differs from in-process:\n in: %v\nout: %v", want, got)
	}
	if len(got.Strata[0]) != 7 || len(got.Strata[1]) != 9 {
		t.Errorf("per-stratum fill %d/%d after recovery, want 7/9",
			len(got.Strata[0]), len(got.Strata[1]))
	}
	tasks := int64(met.MapTasks + met.ReduceTasks)
	attempts := met.MapAttempts + met.ReduceAttempts
	if attempts != tasks+1 {
		t.Errorf("attempts = %d over %d tasks, want exactly one reassignment (%d)",
			attempts, tasks, tasks+1)
	}
	// The one attempt that died is a failed span tagged with the dead worker;
	// the reducers planned on it were never dispatched there, so their routed
	// replays are first attempts, not retries.
	failed := failedSpans(tr)
	if len(failed) != 1 || failed[0].Phase != mapreduce.PhaseMap || failed[0].Worker != "sp-0" {
		t.Errorf("failed spans %+v, want one: the map attempt that died on sp-0", failed)
	}
}

// TestGoldenSpansAcrossBackends locks the cross-backend determinism
// contract end to end: under a frozen clock and a fixed seed, all three
// backends produce the identical answer and, up to the worker id tag, the
// byte-identical span file.
func TestGoldenSpansAcrossBackends(t *testing.T) {
	splits := testPopulation(t)

	run := func(exec mapreduce.Executor) (*query.Answer, []byte) {
		var buf bytes.Buffer
		c := testCluster(exec)
		tr := mapreduce.NewJSONLTracer(&buf)
		c.Tracer = tr
		ans, _, err := stratified.RunSQE(c, testQuery(), testSchema(), splits,
			stratified.Options{Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return ans, buf.Bytes()
	}

	inprocAns, inprocSpans := run(nil)

	sub := newSubprocess(t, 2, nil)
	defer sub.Close()
	subAns, subSpans := run(sub)

	tcp, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer tcp.Close()
	tcp.SpawnLocal(2)
	if err := tcp.AwaitWorkers(2, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	tcpAns, tcpSpans := run(tcp)

	if !reflect.DeepEqual(inprocAns, subAns) || !reflect.DeepEqual(inprocAns, tcpAns) {
		t.Errorf("answers differ across backends")
	}
	golden := stripWorker(t, inprocSpans)
	for _, b := range []struct {
		name  string
		spans []byte
	}{{"subprocess", subSpans}, {"tcp", tcpSpans}} {
		if got := stripWorker(t, b.spans); !bytes.Equal(golden, got) {
			t.Errorf("%s span file differs from in-process (after dropping worker ids):\n--- inproc ---\n%s\n--- %s ---\n%s",
				b.name, golden, b.name, got)
		}
	}
}

// TestGoldenDistributedSpans locks the distributed-tracing determinism
// contract on the remote backends: with a TraceContext installed under a
// frozen clock, repeated runs on one pool produce byte-identical span files
// (up to worker ids), every span carries the trace identity, and the remote
// attempts decompose into the same worker-side child phases on both — decode
// and exec, nothing else: process workers and socket workers are one runtime.
func TestGoldenDistributedSpans(t *testing.T) {
	splits := testPopulation(t)

	run := func(exec mapreduce.Executor) []byte {
		var buf bytes.Buffer
		c := testCluster(exec)
		c.TraceContext = &mapreduce.TraceContext{Trace: "t-golden", Run: "r1"}
		tr := mapreduce.NewJSONLTracer(&buf)
		c.Tracer = tr
		if _, _, err := stratified.RunSQE(c, testQuery(), testSchema(), splits,
			stratified.Options{Seed: 42}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	backends := []struct {
		name string
		make func() mapreduce.Executor
	}{
		{"subprocess", func() mapreduce.Executor { return newSubprocess(t, 2, nil) }},
		{"tcp",
			func() mapreduce.Executor {
				exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
				if err != nil {
					t.Fatal(err)
				}
				exec.SpawnLocal(2)
				if err := exec.AwaitWorkers(2, 10*time.Second); err != nil {
					t.Fatal(err)
				}
				return exec
			}},
	}
	for _, b := range backends {
		t.Run(b.name, func(t *testing.T) {
			exec := b.make()
			defer exec.Close()
			first, second := run(exec), run(exec)
			if g, s := stripWorker(t, first), stripWorker(t, second); !bytes.Equal(g, s) {
				t.Errorf("traced span file differs between identical runs (after dropping worker ids):\n--- first ---\n%s\n--- second ---\n%s", g, s)
			}

			spans, err := mapreduce.ReadSpans(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			phases := map[string]int{}
			for _, s := range spans {
				phases[s.Phase]++
				if s.Trace != "t-golden" || s.Run != "r1" {
					t.Fatalf("span %s/%s carries trace %q run %q, want t-golden/r1", s.Phase, s.Job, s.Trace, s.Run)
				}
				if s.ID == 0 {
					t.Fatalf("span %s task %d has no id", s.Phase, s.Task)
				}
				if s.Phase != mapreduce.PhaseJob && s.Parent == 0 {
					t.Fatalf("span %s task %d has no parent", s.Phase, s.Task)
				}
			}
			remote := []string{
				mapreduce.PhaseQueue, mapreduce.PhaseWire, // measured by the pool
				mapreduce.PhaseDecode, mapreduce.PhaseExec, // only a worker can emit
			}
			for _, p := range remote {
				if phases[p] == 0 {
					t.Errorf("no %q spans in traced %s run; phases: %v", p, b.name, phases)
				}
			}
			known := append(remote, mapreduce.PhaseMap, mapreduce.PhaseCombine,
				mapreduce.PhaseShuffleSend, mapreduce.PhaseShuffleRecv, mapreduce.PhaseReduce, mapreduce.PhaseJob)
			for p := range phases {
				if !slices.Contains(known, p) {
					t.Errorf("traced %s run emitted %q spans; a worker measures decode and exec only", b.name, p)
				}
			}
		})
	}
}

// failedSpans are the attempts a traced run saw die.
func failedSpans(tr *mapreduce.MemTracer) []mapreduce.Span {
	var failed []mapreduce.Span
	for _, s := range tr.Spans() {
		if s.Failed {
			failed = append(failed, s)
		}
	}
	return failed
}

// stripWorker re-renders a JSONL span stream with the worker tag removed —
// the only field allowed to differ between backends.
func stripWorker(t testing.TB, spans []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	for _, line := range bytes.Split(bytes.TrimSpace(spans), []byte("\n")) {
		var m map[string]any
		if err := json.Unmarshal(line, &m); err != nil {
			t.Fatalf("bad span line %q: %v", line, err)
		}
		delete(m, "worker")
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		out.Write(b)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// BenchmarkEngine compares one full MR-SQE job on the in-process engine
// against the subprocess worker pool: the difference is the executor seam's
// serialization plus the frame protocol round-trips.
func BenchmarkEngine(b *testing.B) {
	splits := testPopulation(b)
	bench := func(b *testing.B, exec mapreduce.Executor) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c := &mapreduce.Cluster{
				Slaves: 3, SlotsPerSlave: 2,
				Cost:     mapreduce.ZeroCostModel(),
				Executor: exec,
			}
			_, _, err := stratified.RunSQE(c, testQuery(), testSchema(), splits,
				stratified.Options{Seed: int64(i)})
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("backend=inproc", func(b *testing.B) { bench(b, nil) })
	b.Run("backend=subprocess", func(b *testing.B) {
		exec := newSubprocess(b, 3, nil)
		defer exec.Close()
		b.ResetTimer()
		bench(b, exec)
	})
	b.Run(fmt.Sprintf("backend=tcp/workers=%d", 3), func(b *testing.B) {
		exec := newTCP(b, 3, worker.TCPConfig{})
		defer exec.Close()
		b.ResetTimer()
		bench(b, exec)
	})
}
