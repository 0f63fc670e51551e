package serve

import (
	"fmt"
	"log/slog"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// The admission-control batcher. Queries that arrive while a batch is
// collecting are coalesced into a single engine pass over the resident
// population. The window is work-conserving (group commit): a batch waits
// only behind a running pass, and the window is the upper bound on that
// wait, not a delay every query pays. Within a batch, requests with equal
// canonical form and seed attach to one entry (single flight): the pass
// answers the query once and every attached request receives the same answer.
//
// Window state machine (DESIGN.md §12); "idle" is idleLocked — nothing in
// flight, and no batch-mate worth waiting for:
//
//	idle --query--> executing                       (nothing to wait behind)
//	else --first query--> collecting(timer=window)
//	collecting --query--> collecting                (attach or add entry)
//	collecting --idle--> executing                  (the machine came free)
//	collecting --timeout--> executing               (the window bounds the wait)
//	collecting --size==maxBatch--> executing
//	collecting --last waiter hung up--> discarded   (no pass)
//	executing --done--> entries resolved
//
// Coalescing therefore grows with load by itself — queries pile up exactly
// while the machine is busy — and costs nothing when it is not. With
// adaptive off nothing is ever idle and every batch opens collecting: the
// strict fixed window.
//
// A window of zero degenerates to one-pass-per-query: each submission opens
// and immediately fires its own batch. That is the baseline the load
// generator compares against.
//
// Execution lowers the batch onto the paper's machinery: the distinct
// queries of a seed group run as one MR-MQE pass, and a group with exactly
// one distinct query runs as MR-SQE — the |Q|=1 degenerate of MR-MQE —
// which keeps its answer byte-identical to the one-shot CLI path
// ("strata sample" with matching population parameters and seed).
type batcher struct {
	window   time.Duration
	adaptive bool
	epoch    func() int64
	exec     *executor
	stats    *Stats
	seq      int64 // batch sequence, under mu; names batch runs "b<seq>"

	mu  sync.Mutex
	cur *batch
	// inflight counts batches that have fired but not finished (under mu):
	// from fire, not from pass start, so a batch that has detached but whose
	// passes have not begun already counts as running work.
	inflight int
	// lastShared is how long the most recently finished batch ran, fire to
	// done, if it had company — more than one request aboard, or another
	// batch in flight or collecting when it finished — and zero if it ran
	// alone or nothing has run yet (under mu).
	lastShared time.Duration
	wg         sync.WaitGroup // running passes, for graceful drain
}

// maxBatch fires a collecting batch early once it holds this many distinct
// queries: it bounds one MR-MQE pass's query set, whatever the window.
const maxBatch = 64

// maxPasses bounds the engine passes executing at once, daemon-wide.
// Concurrency never changes answers — each pass owns its seed, cluster and
// output slots.
func maxPasses() int { return 2 * runtime.GOMAXPROCS(0) }

// batch is one collecting (then executing) admission window.
type batch struct {
	epoch   int64
	entries map[cacheKey]*entry
	order   []cacheKey // arrival order: determines MQE query indexes
	created time.Time
	timer   *time.Timer
	fired   bool
	// seq numbers the batch within the daemon; its passes trace under runs
	// "b<seq>.p<group>". trace/parent carry the trace identity of the request
	// that opened the batch, so the batch span hangs under that request in
	// the merged trace tree.
	seq    int64
	trace  string
	parent uint64
}

// runName is the batch's trace run id.
func (cur *batch) runName() string { return fmt.Sprintf("b%d", cur.seq) }

// spanID is the batch span's deterministic id.
func (cur *batch) spanID() uint64 {
	return mapreduce.SpanID(cur.trace, cur.runName(), "serve", "batch", "0", "0")
}

// entry is one distinct query in a batch plus everyone waiting on it.
type entry struct {
	q        *query.SSD
	canon    string
	seed     int64
	attached int // number of requests riding this entry
	done     chan struct{}
	ans      *query.Answer
	err      error
	// Lifecycle timestamps for per-query latency attribution: when the batch
	// fired, and when the entry's engine pass started and finished. Written
	// before done closes, read only after — the channel close orders them.
	firedAt   time.Time
	passStart time.Time
	passEnd   time.Time
}

// executor runs one batch as engine passes over the resident population.
type executor struct {
	schema *dataset.Schema
	// pop hands each pass its blocks (rows, column mirror, size column) under
	// a read lock held for the pass.
	pop *live.Population
	// cluster is the template every pass copies: whatever the factory wired
	// (tracer, Executor handle) is shared by all passes and outlives them;
	// only the copy's trace fields are set per pass.
	cluster   *mapreduce.Cluster
	onMetrics func(mapreduce.Metrics)
	cache     *resultCache
	stats     *Stats
	// sem bounds concurrently executing passes daemon-wide (maxPasses):
	// seed groups of one batch run in parallel under it, and overlapping
	// batches pipeline through it instead of queueing behind each other.
	sem chan struct{}
	// tracer, when set, receives batch/pass/demux spans and threads a
	// TraceContext into every pass cluster; base is the daemon start time all
	// serve span offsets are measured from.
	tracer mapreduce.Tracer
	base   time.Time
}

// traced reports whether this batch should emit spans.
func (x *executor) traced(cur *batch) bool {
	return x.tracer != nil && cur.trace != ""
}

// submit admits one query into the current batch (opening one if needed) and
// returns the entry to wait on. The caller has already consulted the cache.
// trace/traceSpan identify the submitting request; the request that opens a
// batch lends the batch its trace identity, so the whole batch — and every
// engine pass under it — traces under the opener.
func (b *batcher) submit(q *query.SSD, canon string, seed int64, trace string, traceSpan uint64) *entry {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		b.openLocked()
		b.cur.trace, b.cur.parent = trace, traceSpan
	}
	cur := b.cur
	key := cacheKey{canon: canon, seed: seed}
	e, ok := cur.entries[key]
	if ok {
		e.attached++
		b.stats.add(&b.stats.SingleFlight, 1)
	} else {
		e = &entry{q: q, canon: canon, seed: seed, attached: 1, done: make(chan struct{})}
		cur.entries[key] = e
		cur.order = append(cur.order, key)
	}
	switch {
	case len(cur.entries) >= maxBatch || b.window <= 0:
		b.fireLocked(cur)
	case b.idleLocked():
		b.stats.add(&b.stats.AdaptiveFires, 1)
		b.fireLocked(cur)
	}
	return e
}

// idleLocked reports whether a collecting batch should run now rather than
// wait out its window: nothing is in flight to wait behind, and no batch-mate
// is worth waiting for. One is when the last batch both had company (another
// request is likely) and outlasted the window (sharing a pass saves more than
// the wait costs). Each condition is measured against its alternative in
// EXPERIMENTS.md (PR 16), "inflight == 0" against "a core is free" too.
func (b *batcher) idleLocked() bool {
	return b.adaptive && b.inflight == 0 && b.lastShared < b.window
}

// abandon detaches one waiter from e if e's batch is still collecting, and
// reports whether it did. An entry left with no waiters leaves the batch; a
// batch left with no entries is discarded without a pass. Once the batch has
// fired the pass is bought and abandon changes nothing.
func (b *batcher) abandon(e *entry) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	cur := b.cur
	key := cacheKey{canon: e.canon, seed: e.seed}
	if cur == nil || cur.entries[key] != e {
		return false
	}
	b.stats.add(&b.stats.Abandoned, 1)
	e.attached--
	if e.attached > 0 {
		return true
	}
	delete(cur.entries, key)
	cur.order = slices.DeleteFunc(cur.order, func(k cacheKey) bool { return k == key })
	if len(cur.entries) == 0 {
		cur.timer.Stop() // a collecting batch always has a timer: window > 0
		b.cur = nil
	}
	return true
}

// openLocked starts a fresh collecting batch and arms its window timer.
func (b *batcher) openLocked() {
	b.seq++
	cur := &batch{
		epoch:   b.epoch(),
		entries: make(map[cacheKey]*entry),
		created: time.Now(),
		seq:     b.seq,
	}
	b.cur = cur
	if b.window > 0 {
		cur.timer = time.AfterFunc(b.window, func() {
			b.mu.Lock()
			if b.cur == cur {
				b.fireLocked(cur)
			}
			b.mu.Unlock()
		})
	}
}

// fireLocked detaches the batch and runs it asynchronously.
func (b *batcher) fireLocked(cur *batch) {
	if cur.fired {
		return
	}
	cur.fired = true
	if cur.timer != nil {
		cur.timer.Stop()
	}
	firedAt := time.Now()
	riders := 0
	for _, e := range cur.entries {
		e.firedAt = firedAt
		riders += e.attached
	}
	if b.cur == cur {
		b.cur = nil
	}
	b.wg.Add(1)
	b.inflight++
	go func() {
		b.exec.run(cur)
		b.stats.observeWindow(time.Since(cur.created).Nanoseconds())
		b.mu.Lock()
		b.inflight--
		b.lastShared = 0
		if riders > 1 || b.inflight > 0 || b.cur != nil {
			b.lastShared = time.Since(firedAt)
		}
		if b.cur != nil && b.idleLocked() {
			// The machine came free: the batch that queued behind this one
			// runs now. Its wg.Add(1) happens here, before this goroutine's
			// own Done below, so drain's Wait cannot return between the two.
			b.stats.add(&b.stats.AdaptiveFires, 1)
			b.fireLocked(b.cur)
		}
		b.mu.Unlock()
		b.wg.Done()
	}()
}

// flush fires the collecting batch, if any (used on drain).
func (b *batcher) flush() {
	b.mu.Lock()
	if b.cur != nil {
		b.fireLocked(b.cur)
	}
	b.mu.Unlock()
}

// drain flushes and waits for every running pass to finish, looping in case
// a straggler submission opened a fresh batch between the flush and the
// wait.
func (b *batcher) drain() {
	for {
		b.flush()
		b.wg.Wait()
		b.mu.Lock()
		empty := b.cur == nil
		b.mu.Unlock()
		if empty {
			return
		}
	}
}

// seedGroup is the slice of a batch sharing one sampling seed; a pass has a
// single job seed, so each group becomes its own pass.
type seedGroup struct {
	seed    int64
	entries []*entry
}

// run executes a batch: its entries are grouped by seed and each group
// becomes one engine pass, queries in arrival order. Passes run concurrently
// under the daemon-wide semaphore; each pass owns its seed and its cluster,
// so concurrency cannot reorder anything within a pass and answers stay
// byte-identical to serial execution (pinned by TestConcurrentPassesByteIdentical).
func (x *executor) run(cur *batch) {
	bySeed := make(map[int64]*seedGroup)
	var seeds []int64
	for _, key := range cur.order {
		g, ok := bySeed[key.seed]
		if !ok {
			g = &seedGroup{seed: key.seed}
			bySeed[key.seed] = g
			seeds = append(seeds, key.seed)
		}
		g.entries = append(g.entries, cur.entries[key])
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	if len(seeds) == 1 {
		x.boundedPass(bySeed[seeds[0]], cur, 0)
	} else {
		var wg sync.WaitGroup
		for i, s := range seeds {
			wg.Add(1)
			go func(g *seedGroup, idx int) {
				defer wg.Done()
				x.boundedPass(g, cur, idx)
			}(bySeed[s], i)
		}
		wg.Wait()
	}
	if x.traced(cur) {
		x.tracer.Emit(mapreduce.Span{
			Job: "serve", Phase: "batch",
			Trace: cur.trace, Run: cur.runName(),
			ID: cur.spanID(), Parent: cur.parent,
			Start:   cur.created.Sub(x.base),
			Wall:    time.Since(cur.created),
			Records: int64(len(cur.order)),
		})
	}
}

// boundedPass runs one pass under the daemon-wide pass semaphore.
func (x *executor) boundedPass(g *seedGroup, cur *batch, idx int) {
	x.sem <- struct{}{}
	defer func() { <-x.sem }()
	x.runPass(g, cur, idx)
}

// fail resolves every still-waiting entry of the group with err.
func (g *seedGroup) fail(err error, passStart time.Time) {
	passEnd := time.Now()
	for _, e := range g.entries {
		select {
		case <-e.done: // answered before the pass went wrong
		default:
			e.passStart, e.passEnd = passStart, passEnd
			e.err = err
			close(e.done)
		}
	}
}

// runPass answers one seed group with a single MapReduce pass. idx is the
// group's position within the batch, naming the pass run "b<seq>.p<idx>".
// A panic anywhere in the pass fails the group's waiters instead of taking
// the daemon down with them stranded.
func (x *executor) runPass(g *seedGroup, cur *batch, idx int) {
	passStart := time.Now()
	defer func() {
		if r := recover(); r != nil {
			x.stats.add(&x.stats.PassPanics, 1)
			slog.Error("serve: pass panicked", "batch", cur.runName(), "pass", idx, "panic", r, "stack", string(debug.Stack()))
			g.fail(fmt.Errorf("serve: pass panicked: %v", r), passStart)
		}
	}()
	queries := make([]*query.SSD, len(g.entries))
	requests := 0
	for i, e := range g.entries {
		queries[i] = e.q
		requests += e.attached
	}

	blocks, release := x.pop.Acquire()
	defer release()

	c := *x.cluster // this pass's own copy: the trace fields below are set on it
	traced := x.traced(cur)
	passRun := fmt.Sprintf("%s.p%d", cur.runName(), idx)
	var passSpan uint64
	if traced {
		// The pass's engine run traces under the pass span: the cluster
		// stamps its job/attempt/worker spans with this context, linking the
		// whole distributed execution into the request's tree. A cluster
		// factory that wires its own tracer (the CLI's) keeps it; otherwise
		// the daemon's tracer collects the engine spans too.
		passSpan = mapreduce.SpanID(cur.trace, passRun, "serve", "pass", "0", "0")
		c.TraceContext = &mapreduce.TraceContext{Trace: cur.trace, Run: passRun, Parent: passSpan}
		if c.Tracer == nil {
			c.Tracer = x.tracer
		}
	}
	answers, met, err := stratified.Pass(&c, queries, x.schema, blocks, stratified.Options{Seed: g.seed})
	passEnd := time.Now()
	if err != nil {
		x.stats.add(&x.stats.Errors, 1)
		g.fail(fmt.Errorf("serve: pass failed: %w", err), passStart)
		return
	}
	if x.onMetrics != nil {
		x.onMetrics(met)
	}
	x.stats.addPass(len(queries), requests)
	for i, e := range g.entries {
		e.passStart, e.passEnd = passStart, passEnd
		e.ans = answers[i]
		x.stats.addCacheDropped(x.cache.put(cur.epoch, cacheKey{canon: e.canon, seed: e.seed}, e.ans))
		close(e.done)
	}
	if traced {
		x.tracer.Emit(mapreduce.Span{
			Job: "serve", Phase: "demux",
			Trace: cur.trace, Run: passRun,
			ID:     mapreduce.SpanID(cur.trace, passRun, "serve", "demux", "0", "0"),
			Parent: passSpan,
			Start:  passEnd.Sub(x.base),
			Wall:   time.Since(passEnd),
			Out:    int64(len(queries)),
		})
		x.tracer.Emit(mapreduce.Span{
			Job: "serve", Phase: "pass",
			Trace: cur.trace, Run: passRun,
			ID: passSpan, Parent: cur.spanID(),
			Start:   passStart.Sub(x.base),
			Wall:    time.Since(passStart),
			Records: int64(len(queries)),
		})
	}
}
