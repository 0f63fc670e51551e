package audit

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/stratified"
)

// gatedStage forwards (in%2, in) for every record of its split once the gate
// opens.
type gatedStage struct{ gate <-chan struct{} }

func (s gatedStage) MapSplit(_ *mapreduce.TaskContext, split []int, emit func(int, int)) (matches, combined int64) {
	<-s.gate
	for _, in := range split {
		emit(in%2, in)
	}
	return int64(len(split)), 0
}

// gatedJob is a tiny identity job whose map tasks block on a channel, so a
// test can observe the tracker mid-run.
func gatedJob(gate <-chan struct{}) *mapreduce.Job[int, int, int, int] {
	return &mapreduce.Job[int, int, int, int]{
		Name:   "gated",
		Seed:   1,
		Mapper: gatedStage{gate},
		Reducer: mapreduce.ReducerFunc[int, int, int](func(_ *mapreduce.TaskContext, _ int, vs []int, emit func(int)) {
			sum := 0
			for _, v := range vs {
				sum += v
			}
			emit(sum)
		}),
		NumReducers: 2,
	}
}

// TestProgressLiveDuringRun is the acceptance check for the live endpoint:
// while a job's mappers are still blocked, GET /progress already reports the
// announced per-phase task totals with a zero done-count; after the run it
// reports every phase complete.
func TestProgressLiveDuringRun(t *testing.T) {
	tracker := NewTracker()
	c := mapreduce.NewCluster(4)
	c.Cost = mapreduce.ZeroCostModel()
	c.Tracer = tracker

	srv := httptest.NewServer(tracker)
	defer srv.Close()

	getReport := func() ProgressReport {
		t.Helper()
		resp, err := http.Get(srv.URL + "/progress")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content type %q", ct)
		}
		var rep ProgressReport
		if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}

	gate := make(chan struct{})
	splits := [][]int{{1, 2}, {3, 4}, {5, 6}}
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := mapreduce.Run(c, gatedJob(gate), splits)
		done <- err
	}()
	<-started

	// Spin until JobStarted has fired (the goroutine races us to Run).
	var rep ProgressReport
	for i := 0; ; i++ {
		rep = getReport()
		if len(rep.Jobs) > 0 {
			break
		}
		if i > 10000 {
			t.Fatal("JobStarted never observed")
		}
	}
	j := rep.Jobs[0]
	if j.Job != "gated" || j.Done {
		t.Fatalf("mid-run job state: %+v", j)
	}
	findPhase := func(jp JobProgress, phase string) *PhaseProgress {
		for i := range jp.Phases {
			if jp.Phases[i].Phase == phase {
				return &jp.Phases[i]
			}
		}
		return nil
	}
	mp := findPhase(j, mapreduce.PhaseMap)
	if mp == nil {
		t.Fatalf("mid-run snapshot has no map phase: %+v", j.Phases)
	}
	if mp.Total != 3 || mp.Done != 0 {
		t.Fatalf("mid-run map progress %d/%d, want 0/3", mp.Done, mp.Total)
	}
	rp := findPhase(j, mapreduce.PhaseReduce)
	if rp == nil || rp.Total != 2 || rp.Done != 0 {
		t.Fatalf("mid-run reduce progress %+v, want 0/2", rp)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	rep = getReport()
	j = rep.Jobs[0]
	if !j.Done {
		t.Fatal("job not marked done after run")
	}
	mp, rp = findPhase(j, mapreduce.PhaseMap), findPhase(j, mapreduce.PhaseReduce)
	if mp.Done != mp.Total || mp.Done != 3 {
		t.Fatalf("final map progress %d/%d", mp.Done, mp.Total)
	}
	if rp.Done != rp.Total || rp.Done != 2 {
		t.Fatalf("final reduce progress %d/%d", rp.Done, rp.Total)
	}
	if sp := findPhase(j, mapreduce.PhaseShuffleSend); sp == nil || sp.Done != 3 {
		t.Fatalf("final shuffle-send progress %+v", sp)
	}
	if j.ShuffleBytes <= 0 {
		t.Fatal("no shuffle bytes accumulated")
	}
	if line := tracker.Line(); !strings.Contains(line, "gated") || !strings.Contains(line, "map 3/3") {
		t.Fatalf("terminal line %q", line)
	}
}

// TestProgressFlagsStragglers is the acceptance check for straggler
// detection. The straggler is real work: one split holds 2400 of the 2630
// tuples, so its map task's simulated duration (0.5 s overhead + ≈ 1 ms a
// record) is more than four times the phase median of the 10-tuple splits
// around it, and the tracker must flag it — and nothing else.
func TestProgressFlagsStragglers(t *testing.T) {
	tracker := NewTracker()
	c := mapreduce.NewCluster(4)
	c.Tracer = tracker

	r := genderPop(1315, 1315)
	splits := []dataset.Split{r.Tuples()[:2400]}
	for rest := r.Tuples()[2400:]; len(rest) > 0; rest = rest[10:] {
		splits = append(splits, rest[:10])
	}
	q := genderSSD(10, 10)
	if _, _, err := stratified.RunSQE(c, q, r.Schema(), splits, stratified.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	rep := tracker.Snapshot()
	if len(rep.Jobs) != 1 {
		t.Fatalf("jobs = %d", len(rep.Jobs))
	}
	st := rep.Jobs[0].Stragglers
	if len(st) != 1 || st[0].Phase != mapreduce.PhaseMap || st[0].Task != 0 {
		t.Fatalf("stragglers %+v, want exactly the oversized split's map task", st)
	}
	for _, s := range st {
		if s.Factor < 4 {
			t.Fatalf("flagged straggler below threshold: %+v", s)
		}
		if s.Simulated <= 0 {
			t.Fatalf("straggler without simulated duration: %+v", s)
		}
		if s.Phase != mapreduce.PhaseMap && s.Phase != mapreduce.PhaseReduce {
			t.Fatalf("straggler in unexpected phase: %+v", s)
		}
	}
}

// TestProgressNoStragglersWithoutFaults: a run of equal-size tasks has no
// 4× outliers to flag.
func TestProgressNoStragglersWithoutFaults(t *testing.T) {
	tracker := NewTracker()
	c := mapreduce.NewCluster(4)
	c.Tracer = tracker

	r := genderPop(60, 60)
	splits := splitsOf(t, r, 12)
	q := genderSSD(5, 5)
	if _, _, err := stratified.RunSQE(c, q, r.Schema(), splits, stratified.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if st := tracker.Snapshot().Jobs[0].Stragglers; len(st) != 0 {
		t.Fatalf("a run of equal-size tasks flagged stragglers: %+v", st)
	}
}

// TestProgressRepeatedRuns: re-running the same job name (the bias audit
// does this dozens of times) resets the counters and bumps Runs.
func TestProgressRepeatedRuns(t *testing.T) {
	tracker := NewTracker()
	c := zeroCluster(2)
	c.Tracer = tracker

	r := genderPop(20, 20)
	splits := splitsOf(t, r, 2)
	q := genderSSD(3, 3)
	for run := 0; run < 3; run++ {
		if _, _, err := stratified.RunSQE(c, q, r.Schema(), splits, stratified.Options{Seed: int64(run)}); err != nil {
			t.Fatal(err)
		}
	}
	rep := tracker.Snapshot()
	if len(rep.Jobs) != 1 {
		t.Fatalf("jobs = %d, want 1 (same name)", len(rep.Jobs))
	}
	j := rep.Jobs[0]
	if j.Runs != 3 || !j.Done {
		t.Fatalf("runs = %d done = %v, want 3/true", j.Runs, j.Done)
	}
	for _, p := range j.Phases {
		if p.Phase == mapreduce.PhaseMap && (p.Done != 2 || p.Total != 2) {
			t.Fatalf("latest-run map progress %d/%d, want 2/2 (reset per run)", p.Done, p.Total)
		}
	}
	if line := tracker.Line(); !strings.Contains(line, "(run 3)") {
		t.Fatalf("terminal line %q missing run counter", line)
	}
}

// BenchmarkTrackerEmit prices the progress consumer's per-span cost — the
// overhead a -progress run adds on top of span assembly.
func BenchmarkTrackerEmit(b *testing.B) {
	tracker := NewTracker()
	tracker.JobStarted("bench", 8, 4)
	span := mapreduce.Span{Job: "bench", Phase: mapreduce.PhaseMap, Task: 3, Attempt: 1, Records: 100, Simulated: 1000}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tracker.Emit(span)
	}
}

// TestTrackerInsideTee: the tracker composes with a span-file writer via
// TeeTracer — JobStarted reaches the tracker through the tee, spans reach
// both consumers.
func TestTrackerInsideTee(t *testing.T) {
	tracker := NewTracker()
	mem := mapreduce.NewMemTracer()
	c := zeroCluster(2)
	c.Tracer = mapreduce.NewTeeTracer(mem, tracker, nil)

	r := genderPop(10, 10)
	splits := splitsOf(t, r, 2)
	q := genderSSD(2, 2)
	if _, _, err := stratified.RunSQE(c, q, r.Schema(), splits, stratified.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	rep := tracker.Snapshot()
	if len(rep.Jobs) != 1 || !rep.Jobs[0].Done {
		t.Fatalf("tracker behind tee saw %+v", rep.Jobs)
	}
	// Totals prove JobStarted was forwarded, not just spans.
	foundTotal := false
	for _, p := range rep.Jobs[0].Phases {
		if p.Phase == mapreduce.PhaseMap && p.Total == 2 {
			foundTotal = true
		}
	}
	if !foundTotal {
		t.Fatal("JobStarted not forwarded through TeeTracer")
	}
	if len(mem.Spans()) == 0 {
		t.Fatal("memory tracer behind tee saw no spans")
	}
}
