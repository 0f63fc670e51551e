package mapreduce

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"reflect"
	"strings"
	"testing"
)

func tracedCluster(tr Tracer) *Cluster {
	c := NewCluster(3)
	c.Tracer = tr
	return c
}

// countPhase tallies spans by phase.
func countPhase(spans []Span) map[string]int {
	out := make(map[string]int)
	for _, s := range spans {
		out[s.Phase]++
	}
	return out
}

// TestTracedSpansMatchAttempts is the acceptance check: when attempts died
// on workers, the engine emits one map/reduce span per attempt, so the span
// counts reproduce Metrics.MapAttempts and Metrics.ReduceAttempts exactly.
func TestTracedSpansMatchAttempts(t *testing.T) {
	tr := NewMemTracer()
	c := dyingCluster()
	c.Tracer = tr
	res, err := Run(c, portableJob(5), remoteTestSplits())
	if err != nil {
		t.Fatal(err)
	}
	spans := tr.Spans()
	byPhase := countPhase(spans)
	if byPhase[PhaseMap] != res.Metrics.MapTasks+2 || byPhase[PhaseReduce] != res.Metrics.ReduceTasks+1 {
		t.Fatalf("%d map and %d reduce spans for %d and %d tasks: the 2 + 1 attempts that died are missing",
			byPhase[PhaseMap], byPhase[PhaseReduce], res.Metrics.MapTasks, res.Metrics.ReduceTasks)
	}
	if got, want := int64(byPhase[PhaseMap]), res.Metrics.MapAttempts; got != want {
		t.Fatalf("map spans %d, MapAttempts %d", got, want)
	}
	if got, want := int64(byPhase[PhaseReduce]), res.Metrics.ReduceAttempts; got != want {
		t.Fatalf("reduce spans %d, ReduceAttempts %d", got, want)
	}
	if byPhase[PhaseCombine] != res.Metrics.MapTasks {
		t.Fatalf("combine spans %d, map tasks %d", byPhase[PhaseCombine], res.Metrics.MapTasks)
	}
	if byPhase[PhaseShuffleSend] != res.Metrics.MapTasks ||
		byPhase[PhaseShuffleRecv] != res.Metrics.ReduceTasks {
		t.Fatalf("shuffle spans %d send / %d recv, want %d / %d",
			byPhase[PhaseShuffleSend], byPhase[PhaseShuffleRecv],
			res.Metrics.MapTasks, res.Metrics.ReduceTasks)
	}
	if byPhase[PhaseJob] != 1 {
		t.Fatalf("job spans %d, want 1", byPhase[PhaseJob])
	}
	// Every non-final attempt is marked Failed, names the worker it died on
	// and carries no wall or simulated time; every final attempt succeeded.
	attempts := make(map[int]int)
	for _, s := range spans {
		if s.Phase != PhaseMap {
			continue
		}
		attempts[s.Task]++
		if s.Failed && (s.Wall != 0 || s.Simulated != 0 || !strings.HasPrefix(s.Worker, "w-dead")) {
			t.Fatalf("failed attempt carries time or no dead worker: %+v", s)
		}
		if s.Attempt != attempts[s.Task] {
			t.Fatalf("attempt numbers of task %d not contiguous: %+v", s.Task, s)
		}
		if want := s.Task == 2 && s.Attempt <= 2; s.Failed != want {
			t.Fatalf("map task %d attempt %d: failed = %v", s.Task, s.Attempt, s.Failed)
		}
	}
	// Span record counts agree with the phase totals.
	var mapRecs, redRecs int64
	for _, s := range spans {
		if s.Phase == PhaseMap && !s.Failed {
			mapRecs += s.Records
		}
		if s.Phase == PhaseReduce && !s.Failed {
			redRecs += s.Records
		}
	}
	if mapRecs != res.Metrics.MapInputRecords {
		t.Fatalf("map span records %d, metrics %d", mapRecs, res.Metrics.MapInputRecords)
	}
	if redRecs != res.Metrics.ReduceInputRecs {
		t.Fatalf("reduce span records %d, metrics %d", redRecs, res.Metrics.ReduceInputRecs)
	}
}

// TestTracerOffMatchesOn: tracing must not change output or deterministic
// metrics, and a nil tracer — the one off switch — collects no per-key
// counters.
func TestTracerOffMatchesOn(t *testing.T) {
	plain, err := Run(NewCluster(3), wordCountJob(2, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := Run(tracedCluster(NewMemTracer()), wordCountJob(2, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sortedWC(plain.Output), sortedWC(traced.Output)) {
		t.Fatal("tracer changed job output")
	}
	if plain.Metrics.PerKey != nil {
		t.Fatal("untraced run collected per-key counters")
	}
	if traced.Metrics.PerKey == nil {
		t.Fatal("traced run did not collect per-key counters")
	}
	if plain.Metrics.ShuffleBytes != traced.Metrics.ShuffleBytes ||
		plain.Metrics.MapOutputRecords != traced.Metrics.MapOutputRecords {
		t.Fatal("tracer changed deterministic counters")
	}
}

// TestDebugLogReportsEachPhase: with no tracer, a run at debug level logs
// the end of its map phase, of its shuffle and of the job, in that order,
// with the counts of its Metrics — the per-phase progress of every job a
// command runs under -log debug.
func TestDebugLogReportsEachPhase(t *testing.T) {
	var buf bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewJSONHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug})))
	defer slog.SetDefault(prev)

	res, err := Run(NewCluster(3), wordCountJob(2, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	type line struct {
		Msg, Job       string
		Tasks, Records int64
		RecordsIn      int64 `json:"records_in"`
		OutRecords     int64 `json:"output_records"`
	}
	var got []line
	dec := json.NewDecoder(&buf)
	for dec.More() {
		var l line
		if err := dec.Decode(&l); err != nil {
			t.Fatal(err)
		}
		if l.Job == "wordcount" {
			got = append(got, l)
		}
	}
	m := res.Metrics
	want := []line{
		{Msg: "mapreduce map phase done", Job: "wordcount", Tasks: int64(m.MapTasks), RecordsIn: m.MapInputRecords},
		{Msg: "mapreduce shuffle done", Job: "wordcount", Records: m.ShuffleRecords},
		{Msg: "mapreduce job done", Job: "wordcount", OutRecords: m.OutputRecords},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("debug lines %+v, want %+v", got, want)
	}
}

// TestShuffleSpanBytesSumToShuffleBytes: a traced run sizes each bucket once,
// on the map side, and both legs of the shuffle account those sizes — the
// send spans per map task, the recv spans per reducer each sum to
// Metrics.ShuffleBytes, in process and through the serialized route.
func TestShuffleSpanBytesSumToShuffleBytes(t *testing.T) {
	for name, exec := range map[string]Executor{"inproc": nil, "executor": testInproc} {
		tr := NewMemTracer()
		c := tracedCluster(tr)
		c.Executor = exec
		res, err := Run(c, portableJob(5), remoteTestSplits())
		if err != nil {
			t.Fatal(err)
		}
		sums := map[string]int64{}
		for _, s := range tr.Spans() {
			sums[s.Phase] += s.Bytes
		}
		want := res.Metrics.ShuffleBytes
		if want == 0 || sums[PhaseShuffleSend] != want || sums[PhaseShuffleRecv] != want {
			t.Errorf("%s: send spans %d B, recv spans %d B, ShuffleBytes %d",
				name, sums[PhaseShuffleSend], sums[PhaseShuffleRecv], want)
		}
	}
}

func TestJSONLTracerRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewJSONLTracer(&buf)
	res, err := Run(tracedCluster(tr), wordCountJob(3, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	byPhase := countPhase(spans)
	if int64(byPhase[PhaseMap]) != res.Metrics.MapAttempts || byPhase[PhaseJob] != 1 {
		t.Fatalf("span file lost spans: %v", byPhase)
	}
	for _, s := range spans {
		if s.Job != "wordcount" {
			t.Fatalf("span lost job name: %+v", s)
		}
	}
}

// TestPerKeyMetrics: the per-stratum counters must reproduce the word counts.
func TestPerKeyMetrics(t *testing.T) {
	c := NewCluster(3)
	c.PerKeyMetrics = true
	res, err := Run(c, wordCountJob(1, false), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]KeyStats{
		"a": {Records: 3, Output: 1},
		"b": {Records: 3, Output: 1},
		"c": {Records: 4, Output: 1},
	}
	if !reflect.DeepEqual(res.Metrics.PerKey, want) {
		t.Fatalf("PerKey = %v, want %v", res.Metrics.PerKey, want)
	}
}

// TestObserveFeedsCustomHistograms: TaskContext.Observe surfaces user
// histograms on Metrics.Custom, folded across tasks.
func TestObserveFeedsCustomHistograms(t *testing.T) {
	job := wordCountJob(1, true)
	job.Mapper = sumStage[string, string]{fn: wcWords, observe: "combine_group_size"}
	res, err := Run(NewCluster(3), job, wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Metrics.Custom["combine_group_size"]
	if h == nil {
		t.Fatal("custom histogram missing")
	}
	if h.Count() == 0 || h.Sum() != res.Metrics.CombineInputRecs {
		t.Fatalf("histogram %v does not cover the %d combine inputs", h, res.Metrics.CombineInputRecs)
	}
}

// TestMetricsHistogramsPopulated: the always-on engine histograms cover every
// task and bucket.
func TestMetricsHistogramsPopulated(t *testing.T) {
	res, err := Run(NewCluster(3), wordCountJob(1, true), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.MapTaskNanos.Count() != int64(m.MapTasks) {
		t.Fatalf("MapTaskNanos n=%d, want %d", m.MapTaskNanos.Count(), m.MapTasks)
	}
	if m.ReduceTaskNanos.Count() != int64(m.ReduceTasks) {
		t.Fatalf("ReduceTaskNanos n=%d, want %d", m.ReduceTaskNanos.Count(), m.ReduceTasks)
	}
	if want := int64(m.MapTasks * m.ReduceTasks); m.BucketBytes.Count() != want {
		t.Fatalf("BucketBytes n=%d, want %d", m.BucketBytes.Count(), want)
	}
	if m.BucketBytes.Sum() != m.ShuffleBytes {
		t.Fatalf("BucketBytes sum %d != ShuffleBytes %d", m.BucketBytes.Sum(), m.ShuffleBytes)
	}
}

// TestMetricsJSONRoundTrip: Metrics — histograms, custom series and per-key
// counters included — survives a JSON round trip unchanged.
func TestMetricsJSONRoundTrip(t *testing.T) {
	c := tracedCluster(NewMemTracer())
	job := wordCountJob(4, true)
	job.Mapper = sumStage[string, string]{fn: wcWords, observe: "reservoir_size"}
	res, err := Run(c, job, wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.MarshalIndent(res.Metrics, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Metrics, back) {
		t.Fatalf("metrics changed across JSON round trip:\n got %+v\nwant %+v", back, res.Metrics)
	}
}

// TestMetricsAttemptAccounting: attempts on a run where workers died exceed
// the task counts and match between a fresh run and an accumulated one.
func TestMetricsAttemptAccounting(t *testing.T) {
	res, err := Run(dyingCluster(), portableJob(9), remoteTestSplits())
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m.MapAttempts <= int64(m.MapTasks) || m.ReduceAttempts <= int64(m.ReduceTasks) {
		t.Fatalf("the attempts that died were not counted: map %d/%d, reduce %d/%d",
			m.MapAttempts, m.MapTasks, m.ReduceAttempts, m.ReduceTasks)
	}
	var sum Metrics
	sum.Add(m)
	sum.Add(m)
	if sum.MapAttempts != 2*m.MapAttempts || sum.ReduceAttempts != 2*m.ReduceAttempts {
		t.Fatal("Add lost attempt counts")
	}
	if sum.MapTaskNanos.Count() != 2*m.MapTaskNanos.Count() {
		t.Fatal("Add lost histogram observations")
	}
}

func TestPrometheusExport(t *testing.T) {
	c := tracedCluster(NewMemTracer())
	res, err := Run(c, wordCountJob(1, false), wcSplits)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := res.Metrics.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`strata_map_input_records_total{job="wordcount"} 4`,
		`strata_map_output_records_total{job="wordcount"} 10`,
		`strata_shuffle_records_total{job="wordcount"}`,
		`# TYPE strata_map_task_duration_nanoseconds histogram`,
		`strata_map_task_duration_nanoseconds_bucket{job="wordcount",le="+Inf"} 3`,
		`strata_shuffle_bucket_bytes_count{job="wordcount"} 9`,
		`strata_key_reduce_records_total{job="wordcount",key="a"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus text missing %q in:\n%s", want, text)
		}
	}
	// Deterministic output: two renders are identical.
	var again bytes.Buffer
	if err := res.Metrics.WritePrometheus(&again); err != nil {
		t.Fatal(err)
	}
	if again.String() != text {
		t.Fatal("prometheus output not deterministic")
	}
}

// corruptingExecutor corrupts one map task's entry in every routed reduce
// spec's bucket column, to prove decode failures name the originating task.
type corruptingExecutor struct {
	Executor
	task int
}

func (e *corruptingExecutor) Execute(spec *TaskSpec) (*TaskResult, error) {
	if spec.Phase == "reduce" {
		spec.Buckets[e.task] = append([]byte("garbage:"), spec.Buckets[e.task]...)
	}
	return e.Executor.Execute(spec)
}

// TestDecodeErrorNamesOriginatingTask is the shuffle-decode bugfix
// regression: a reducer that fails to decode a bucket must say which map
// task sent it.
func TestDecodeErrorNamesOriginatingTask(t *testing.T) {
	c := NewCluster(3)
	c.Executor = &corruptingExecutor{Executor: testInproc, task: 1}
	_, err := Run(c, portableJob(1), remoteTestSplits())
	if err == nil {
		t.Fatal("corrupted shuffle payload went unnoticed")
	}
	if !strings.Contains(err.Error(), "map task 1") {
		t.Fatalf("error does not name the originating map task: %v", err)
	}
}

func TestPromEscapeControlBytes(t *testing.T) {
	m := Metrics{Job: "j", PerKey: map[string]KeyStats{
		"\x00\x01ok": {Records: 2, Output: 1},
	}}
	var buf bytes.Buffer
	if err := m.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if want := `key="\\x00\\x01ok"`; !strings.Contains(out, want) {
		t.Fatalf("control bytes not escaped: output lacks %s", want)
	}
	for i := 0; i < len(out); i++ {
		if c := out[i]; c != '\n' && (c < 0x20 || c == 0x7f) {
			t.Fatalf("raw control byte %#x leaked at offset %d", c, i)
		}
	}
}
