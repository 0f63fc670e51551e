package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/stratified"
)

// gatedExecutor holds every task at a gate until the test opens it, so a
// pass stays "running" for exactly as long as the test wants. No test here
// depends on how long anything takes: each waits on an event.
type gatedExecutor struct {
	mapreduce.Executor
	gate    chan struct{} // Execute blocks until this closes
	entered chan struct{} // closed when the first task reaches the gate
	once    sync.Once
}

func (*gatedExecutor) Name() string { return "gated" }

func (g *gatedExecutor) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.gate
	return g.Executor.Execute(spec)
}

const gatedPop, gatedSlaves, gatedSeed = 2000, 2, int64(1)

// newGatedDaemon starts a work-conserving daemon whose passes block on the
// returned executor's gate. The gate is opened at cleanup if the test has not.
func newGatedDaemon(t *testing.T, window time.Duration) (*testDaemon, *gatedExecutor) {
	t.Helper()
	g := &gatedExecutor{Executor: stratified.Inproc, gate: make(chan struct{}), entered: make(chan struct{})}
	d := newTestDaemon(t, Config{
		Population: gen.Population(gatedPop, gatedSeed), Slaves: gatedSlaves,
		Layout: dataset.Contiguous, PartitionSeed: gatedSeed,
		Window: window, AdaptiveWindow: true,
		NewCluster: func(slaves int) *mapreduce.Cluster {
			c := mapreduce.NewCluster(slaves)
			c.Executor = g
			return c
		},
	})
	// Registered after newTestDaemon's drain, so it runs before it.
	t.Cleanup(g.open)
	return d, g
}

func (g *gatedExecutor) open() {
	select {
	case <-g.gate:
	default:
		close(g.gate)
	}
}

// waitFor polls cond until it holds; the deadline only turns a hang into a
// failure.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// window reports the batcher's state: distinct entries in the collecting
// batch, requests attached to them, and batches in flight.
func (d *testDaemon) window() (entries, attached, inflight int) {
	b := d.s.batcher
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur != nil {
		entries = len(b.cur.entries)
		for _, e := range b.cur.entries {
			attached += e.attached
		}
	}
	return entries, attached, b.inflight
}

// lastShared drains the daemon and reports the batcher's memory of the last
// batch: its run time if it had company, zero if it ran alone.
func (d *testDaemon) lastShared() time.Duration {
	d.s.Drain()
	b := d.s.batcher
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.lastShared
}

// postAsync posts a nocache query on its own goroutine and delivers the 200
// answer on the channel, or nil when there was none (failed, cancelled).
func (d *testDaemon) postAsync(ctx context.Context, spec string) <-chan *sampleResponse {
	out := make(chan *sampleResponse, 1)
	go func() {
		defer close(out)
		raw, _ := json.Marshal(map[string]any{"query": spec, "seed": gatedSeed, "nocache": true})
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.ts.URL+"/v1/sample", bytes.NewReader(raw))
		if err != nil {
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return
		}
		defer resp.Body.Close()
		var r sampleResponse
		if resp.StatusCode == http.StatusOK && json.NewDecoder(resp.Body).Decode(&r) == nil {
			out <- &r
		}
	}()
	return out
}

// startGatedPass submits one query to the idle daemon and returns once its
// pass is held at the gate.
func startGatedPass(t *testing.T, d *testDaemon, g *gatedExecutor) <-chan *sampleResponse {
	t.Helper()
	first := d.postAsync(context.Background(), "nop >= 100 : 3")
	select {
	case <-g.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the first pass never reached the gate")
	}
	return first
}

func mustAnswer(t *testing.T, who string, ch <-chan *sampleResponse) *sampleResponse {
	t.Helper()
	select {
	case r := <-ch:
		if r == nil {
			t.Fatalf("%s: no 200 answer", who)
		}
		return r
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: never answered", who)
	}
	return nil
}

// TestIdleDaemonSkipsWindow: the first-ever query to an idle daemon is
// answered without the window — here an hour, so waiting it out is a hang.
func TestIdleDaemonSkipsWindow(t *testing.T) {
	d, g := newGatedDaemon(t, time.Hour)
	g.open()
	mustAnswer(t, "lone query", d.postAsync(context.Background(), "nop >= 100 : 3"))
	if snap := d.s.Stats(); snap.Passes != 1 || snap.AdaptiveFires != 1 {
		t.Errorf("passes = %d, adaptive fires = %d, want 1 and 1", snap.Passes, snap.AdaptiveFires)
	}
	if got := d.lastShared(); got != 0 {
		t.Errorf("a batch that ran alone was remembered as shared (%v)", got)
	}
}

// TestSlowSharedPassesKeepTheWindow: once a batch that had company has run
// for at least the window, an idle daemon collects again — a batch-mate is
// likely and worth the wait — until a batch runs alone or under the window.
func TestSlowSharedPassesKeepTheWindow(t *testing.T) {
	d, g := newGatedDaemon(t, time.Hour)
	g.open()
	b := d.s.batcher
	b.mu.Lock()
	b.lastShared = b.window
	b.mu.Unlock()

	parked := d.postAsync(context.Background(), "nop >= 100 : 3")
	waitFor(t, "the query to park in an otherwise idle daemon", func() bool {
		entries, _, inflight := d.window()
		return entries == 1 && inflight == 0
	})
	b.flush()
	mustAnswer(t, "parked query", parked)
	d.s.Drain()
	mustAnswer(t, "next query", d.postAsync(context.Background(), "nop >= 50 : 4"))
	if snap := d.s.Stats(); snap.Passes != 2 || snap.AdaptiveFires != 1 {
		t.Errorf("passes = %d, adaptive fires = %d, want 2 and 1 (only the second skipped the window)", snap.Passes, snap.AdaptiveFires)
	}
}

// TestQueriesBehindRunningPassShareOneBatch: queries submitted while a pass
// runs collect into one batch, which fires when the in-flight count drops to
// zero — not when the (hour-long) window would.
func TestQueriesBehindRunningPassShareOneBatch(t *testing.T) {
	d, g := newGatedDaemon(t, time.Hour)
	first := startGatedPass(t, d, g)

	specs := []string{"nop >= 50 : 4", "ayp >= 5 : 2", "nop < 50 : 6", "nop >= 200 : 2"}
	k := len(specs)
	parked := make([]<-chan *sampleResponse, k)
	for i, spec := range specs {
		parked[i] = d.postAsync(context.Background(), spec)
	}
	waitFor(t, "every query to park behind the running pass", func() bool {
		entries, _, inflight := d.window()
		return entries == k && inflight == 1
	})
	g.open()
	mustAnswer(t, "first query", first)
	for i, ch := range parked {
		mustAnswer(t, fmt.Sprintf("parked query %d", i), ch)
	}
	snap := d.s.Stats()
	if snap.Passes != 2 || snap.PassQueries != int64(1+k) || snap.BatchMax != int64(k) {
		t.Errorf("passes = %d, pass queries = %d, max occupancy = %d; want 2, %d, %d",
			snap.Passes, snap.PassQueries, snap.BatchMax, 1+k, k)
	}
	if snap.AdaptiveFires != 2 {
		t.Errorf("adaptive fires = %d, want 2 (idle open + fire on completion)", snap.AdaptiveFires)
	}
	if d.lastShared() == 0 {
		t.Errorf("a batch of %d queries was remembered as having run alone", k)
	}
}

// TestWindowBoundsWaitBehindRunningPass: with the gate held past a short
// window, the collecting batch fires on its timer while the first is still
// executing.
func TestWindowBoundsWaitBehindRunningPass(t *testing.T) {
	d, g := newGatedDaemon(t, 10*time.Millisecond)
	first := startGatedPass(t, d, g)
	second := d.postAsync(context.Background(), "nop >= 50 : 4")
	waitFor(t, "the window to fire the second batch beside the first", func() bool {
		entries, _, inflight := d.window()
		return entries == 0 && inflight == 2
	})
	g.open()
	mustAnswer(t, "first query", first)
	mustAnswer(t, "second query", second)
	if snap := d.s.Stats(); snap.Passes != 2 || snap.AdaptiveFires != 1 {
		t.Errorf("passes = %d, adaptive fires = %d, want 2 and 1 (the second fired on the timer)", snap.Passes, snap.AdaptiveFires)
	}
}

// TestDrainResolvesBatchParkedBehindRunningPass: draining while a batch is
// parked behind a running pass answers every request exactly once and
// returns only when all of them have been.
func TestDrainResolvesBatchParkedBehindRunningPass(t *testing.T) {
	specs := []string{"nop >= 50 : 4", "ayp >= 5 : 2", "nop < 50 : 6"}
	check := func(t *testing.T, d *testDaemon, first <-chan *sampleResponse, parked []<-chan *sampleResponse) {
		t.Helper()
		// Drain has returned: every pass must already be accounted for.
		if snap := d.s.Stats(); snap.Passes != 2 || snap.PassQueries != int64(1+len(specs)) {
			t.Errorf("at drain return: passes = %d, pass queries = %d, want 2 and %d", snap.Passes, snap.PassQueries, 1+len(specs))
		}
		mustAnswer(t, "first query", first)
		for i, ch := range parked {
			mustAnswer(t, fmt.Sprintf("parked query %d", i), ch)
		}
	}
	park := func(t *testing.T, d *testDaemon) []<-chan *sampleResponse {
		t.Helper()
		parked := make([]<-chan *sampleResponse, len(specs))
		for i, spec := range specs {
			parked[i] = d.postAsync(context.Background(), spec)
		}
		waitFor(t, "every query to park", func() bool {
			entries, _, _ := d.window()
			return entries == len(specs)
		})
		return parked
	}

	// BeginDrain flushes the parked batch beside the running one.
	t.Run("flush", func(t *testing.T) {
		d, g := newGatedDaemon(t, time.Hour)
		first := startGatedPass(t, d, g)
		parked := park(t, d)
		d.s.BeginDrain()
		if _, _, inflight := d.window(); inflight != 2 {
			t.Errorf("after BeginDrain: %d batches in flight, want 2", inflight)
		}
		g.open()
		d.s.Drain()
		check(t, d, first, parked)
	})

	// Drain is already waiting when the queries park, so the batch is fired
	// by the finishing pass's completion hook; Drain must wait for it too.
	t.Run("completion hook", func(t *testing.T) {
		d, g := newGatedDaemon(t, time.Hour)
		first := startGatedPass(t, d, g)
		drained := make(chan struct{})
		go func() { d.s.Drain(); close(drained) }()
		parked := park(t, d)
		g.open()
		select {
		case <-drained:
		case <-time.After(10 * time.Second):
			t.Fatal("Drain never returned")
		}
		check(t, d, first, parked)
	})
}

// TestAbandonedRequestBuysNoPass: a client that hangs up while its batch is
// queued behind a running pass leaves the batch; a batch left empty is
// discarded without a pass.
func TestAbandonedRequestBuysNoPass(t *testing.T) {
	d, g := newGatedDaemon(t, time.Hour)
	first := startGatedPass(t, d, g)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := d.postAsync(ctx, "nop >= 50 : 4")
	waitFor(t, "the request to park", func() bool {
		entries, _, _ := d.window()
		return entries == 1
	})
	cancel()
	waitFor(t, "the daemon to notice the hang-up", func() bool { return d.s.Stats().Abandoned == 1 })
	if entries, _, inflight := d.window(); entries != 0 || inflight != 1 {
		t.Errorf("after the hang-up: %d entries collecting, %d batches in flight; want 0 and 1", entries, inflight)
	}
	g.open()
	mustAnswer(t, "first query", first)
	if r := <-gone; r != nil {
		t.Error("the cancelled request was answered")
	}
	d.s.Drain()
	if snap := d.s.Stats(); snap.Passes != 1 {
		t.Errorf("passes = %d, want 1: the abandoned request bought a pass", snap.Passes)
	}
}

// TestAbandonKeepsEntryWithSurvivor: when one of two waiters on the same
// entry hangs up, the pass still runs and the survivor gets its answer.
func TestAbandonKeepsEntryWithSurvivor(t *testing.T) {
	const spec = "nop >= 50 : 4"
	d, g := newGatedDaemon(t, time.Hour)
	first := startGatedPass(t, d, g)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	gone := d.postAsync(ctx, spec)
	survivor := d.postAsync(context.Background(), spec)
	waitFor(t, "both requests to attach to one entry", func() bool {
		entries, attached, _ := d.window()
		return entries == 1 && attached == 2
	})
	cancel()
	waitFor(t, "the daemon to notice the hang-up", func() bool { return d.s.Stats().Abandoned == 1 })
	if entries, attached, _ := d.window(); entries != 1 || attached != 1 {
		t.Errorf("after the hang-up: %d entries with %d waiters, want 1 and 1", entries, attached)
	}
	g.open()
	mustAnswer(t, "first query", first)
	r := mustAnswer(t, "survivor", survivor)
	if <-gone != nil {
		t.Error("the cancelled request was answered")
	}
	want := directSQE(t, gen.Population(gatedPop, gatedSeed), spec, gatedSlaves, gatedSeed)
	if got := respIndividuals(r); !reflect.DeepEqual(got, want) {
		t.Errorf("survivor's answer differs from one-shot strata sample:\ngot  %v\nwant %v", got, want)
	}
	d.s.Drain()
	if snap := d.s.Stats(); snap.Passes != 2 || snap.Coalesced != 0 {
		t.Errorf("passes = %d, coalesced = %d, want 2 and 0 (one rider left on the second pass)", snap.Passes, snap.Coalesced)
	}
}
