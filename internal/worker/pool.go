package worker

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
)

// Config tunes the coordinator pool behind every executor. The zero
// value gets sensible defaults from fill().
type Config struct {
	// LeaseTimeout is how long a dispatched task may go without any frame
	// (heartbeat or result) from its worker before the coordinator declares
	// the lease expired, drops the worker and reassigns the task.
	// Default 15s.
	LeaseTimeout time.Duration
	// HeartbeatInterval is how often workers send keep-alive frames while
	// serving. Default LeaseTimeout/5.
	HeartbeatInterval time.Duration
	// MaxAttempts bounds how many workers a task is tried on before the
	// job fails. Default 3.
	MaxAttempts int
	// RetryBackoff delays a task's re-enqueue after a failed attempt,
	// scaled linearly by the attempt number. Default 50ms.
	RetryBackoff time.Duration
}

func (c Config) fill() Config {
	if c.LeaseTimeout <= 0 {
		c.LeaseTimeout = 15 * time.Second
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = c.LeaseTimeout / 5
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 50 * time.Millisecond
	}
	return c
}

// taskReq is one task making its way through the pool: the spec, the
// attempts that already died on it, and the channel the final outcome is
// delivered on.
type taskReq struct {
	spec     *mapreduce.TaskSpec
	attempts []mapreduce.TaskAttempt
	done     chan taskOutcome
	// affine names the one worker this task must run on (shuffle affinity:
	// the worker holds the task's peer-delivered buckets). An affine task is
	// never reassigned — if its worker dies the outcome is a
	// *mapreduce.ShuffleLostError, and the engine falls back to the routed
	// path instead of retrying here.
	affine string
	// enqueuedAt (unix nanos) is set at submit time for traced, non-frozen
	// specs; serveWorker turns it into the result's queue-wait attribution.
	enqueuedAt int64
}

// markEnqueued stamps the queue-entry time on traced requests. Untraced and
// frozen-clock specs skip the clock read entirely.
func (req *taskReq) markEnqueued() {
	if req.spec.Trace != "" && !req.spec.Frozen {
		req.enqueuedAt = time.Now().UnixNano()
	}
}

type taskOutcome struct {
	res *mapreduce.TaskResult
	err error
}

// pool is the coordinator: a central task queue drained by one lease loop
// per connected worker. TCPExecutor embeds it: the pool runs tasks (Execute,
// ExecuteOn), the executor owns worker lifecycle (accepting, spawning).
type pool struct {
	cfg   Config
	queue chan *taskReq
	quit  chan struct{}

	mu      sync.Mutex
	live    int
	closed  bool
	workers map[string]*workerHandle // attached workers by id, for affinity
	wg      sync.WaitGroup           // worker lease loops

	// Shuffle data-plane accounting (see ShuffleStats): bucket bytes the
	// coordinator carried inside task/result frames vs bytes the workers
	// moved edge-to-edge, and how many direct attempts were lost.
	routedBucketBytes atomic.Int64
	directBytes       atomic.Int64
	shuffleLost       atomic.Int64
}

func newPool(cfg Config) *pool {
	return &pool{
		cfg: cfg.fill(),
		// The buffer bounds nothing semantically — the engine has at most
		// its worker-pool width of Executes in flight — it only keeps
		// requeues from ever blocking a dying worker's loop.
		queue:   make(chan *taskReq, 4096),
		quit:    make(chan struct{}),
		workers: make(map[string]*workerHandle),
	}
}

// Execute queues one task attempt and waits for a worker to complete it,
// transparently reassigning it if its worker dies. It fails fast when no
// workers remain.
func (p *pool) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	req := &taskReq{spec: spec, done: make(chan taskOutcome, 1)}
	if err := p.submit(req); err != nil {
		return nil, err
	}
	out := <-req.done
	return out.res, out.err
}

func (p *pool) submit(req *taskReq) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return fmt.Errorf("worker: pool is closed")
	}
	if p.live == 0 {
		return fmt.Errorf("worker: no live workers (all crashed or none attached)")
	}
	req.markEnqueued()
	p.queue <- req
	return nil
}

// ExecuteOn queues one task for a specific worker (shuffle affinity) and
// waits for it — the mapreduce.DirectShuffler half of the executor. Unlike
// Execute it never reassigns: when the worker is not attached, its affinity
// queue is saturated, or it dies mid-attempt, the error is a
// *mapreduce.ShuffleLostError and the caller falls back to the routed path.
func (p *pool) ExecuteOn(worker string, spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	req := &taskReq{spec: spec, done: make(chan taskOutcome, 1), affine: worker}
	req.markEnqueued()
	p.mu.Lock()
	w := p.workers[worker]
	if p.closed || w == nil {
		p.mu.Unlock()
		return nil, p.lost(worker, req, "worker no longer attached", false)
	}
	select {
	case w.affine <- req:
		p.mu.Unlock()
	default:
		p.mu.Unlock()
		return nil, p.lost(worker, req, "affinity queue saturated", false)
	}
	out := <-req.done
	return out.res, out.err
}

// lost counts one lost direct shuffle and renders it for the engine.
// attempted says whether the reduce attempt reached the worker at all.
func (p *pool) lost(worker string, req *taskReq, reason string, attempted bool) *mapreduce.ShuffleLostError {
	p.shuffleLost.Add(1)
	return &mapreduce.ShuffleLostError{Worker: worker, Reducer: req.spec.Task, Reason: reason, Attempted: attempted}
}

// liveWorkers reports how many workers are currently attached.
func (p *pool) liveWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// shufflePeers lists the attached workers that announced a shuffle-receiver
// endpoint, sorted by id so plans are stable for a given pool membership.
func (p *pool) shufflePeers() (ids, endpoints []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for id, w := range p.workers {
		if w.shuffleAddr != "" {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	for _, id := range ids {
		endpoints = append(endpoints, p.workers[id].shuffleAddr)
	}
	return ids, endpoints
}

// frameOrErr is one read-loop delivery: a frame, or the read error that
// ended the stream.
type frameOrErr struct {
	env *envelope
	err error
}

// helloInfo is what awaitHello extracts from a worker's hello frame.
type helloInfo struct {
	id          string
	shuffleAddr string // the worker's shuffle-receiver endpoint, "" if none
	clockOff    int64  // estimated worker−coordinator clock offset (nanos), from the hello's WallNanos
	clockOK     bool   // whether clockOff is a real estimate: the hello carried a clock sample
}

type workerHandle struct {
	helloInfo // what the worker announced when it registered
	conn      *frameConn
	closeConn func()
	closeOnce sync.Once
	seq       uint64
	frames    chan frameOrErr
	affine    chan *taskReq // tasks pinned to this worker (shuffle affinity)
	gone      chan struct{} // closed by workerGone; unblocks the read loop
}

// attach registers a connected worker (its hello already consumed, described
// by h) and starts its lease loop. closeConn force-closes the underlying
// connection when the worker is dropped or the pool drains; a worker that
// registers with a pool already closed is hung up on at once.
func (p *pool) attach(h helloInfo, conn *frameConn, closeConn func()) {
	w := &workerHandle{
		helloInfo: h, conn: conn, closeConn: closeConn,
		frames: make(chan frameOrErr),
		// The affinity queue is deep enough for any realistic reducer count;
		// ExecuteOn turns a saturated queue into a lost shuffle rather than
		// blocking the engine.
		affine: make(chan *taskReq, 1024),
		gone:   make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		closeConn()
		return
	}
	p.live++
	// Latest registration wins a contended id; the previous holder keeps
	// running tasks from the shared queue but is no longer an affinity target.
	p.workers[w.id] = w
	p.wg.Add(1)
	p.mu.Unlock()
	go w.readLoop()
	go p.serveWorker(w)
}

// readLoop is the single reader of this worker's stream: it forwards frames
// (and the terminal read error) to whoever is waiting in do or drain, and
// unwinds when the worker is discarded.
func (w *workerHandle) readLoop() {
	for {
		env, err := w.conn.read()
		select {
		case w.frames <- frameOrErr{env, err}:
		case <-w.gone:
			return
		}
		if err != nil {
			return
		}
	}
}

// workerGone is called once per attached worker, when its lease loop ends.
// Removing the registry entry under the same lock executeOn enqueues under
// means every affine task either reached the queue before removal — and is
// failed by the drain below — or finds the worker missing; none are stranded.
func (p *pool) workerGone(w *workerHandle) {
	w.closeOnce.Do(w.closeConn)
	close(w.gone)
	p.mu.Lock()
	p.live--
	if p.workers[w.id] == w {
		delete(p.workers, w.id)
	}
	if p.live == 0 {
		// The last worker just died: fail everything still queued. No loop
		// remains to pick these up, and submit (which shares this lock)
		// rejects new work until another worker attaches — without this
		// drain, tasks queued before the death would hang forever.
		for {
			select {
			case req := <-p.queue:
				req.done <- taskOutcome{err: fmt.Errorf(
					"worker: no live workers left for %s task %d (all crashed before it ran)",
					req.spec.Phase, req.spec.Task)}
				continue
			default:
			}
			break
		}
	}
	p.mu.Unlock()
	for {
		select {
		case req := <-w.affine:
			req.done <- taskOutcome{err: p.lost(w.id, req, "worker died before its affine task ran", false)}
		default:
			p.wg.Done()
			return
		}
	}
}

// serveWorker leases tasks to one worker until the pool closes or the
// worker fails. Any transport-level failure (broken connection, lease expiry,
// malformed frame) is treated as a worker death: the in-flight task is
// reassigned and this worker is never used again. Task-level failures
// reported by a healthy worker are deterministic and fail the task
// immediately — retrying them would fail identically.
func (p *pool) serveWorker(w *workerHandle) {
	defer p.workerGone(w)
	for {
		var req *taskReq
		select {
		case <-p.quit:
			w.drain(p.cfg.LeaseTimeout)
			return
		case req = <-w.affine:
		case req = <-p.queue:
		}
		for _, b := range req.spec.Buckets {
			p.routedBucketBytes.Add(int64(len(b)))
		}
		res, taskErr, workerErr := w.do(req, p.cfg.LeaseTimeout)
		switch {
		case workerErr != nil:
			slog.Warn("worker: attempt failed, dropping worker",
				"worker", w.id, "job", req.spec.Job, "phase", req.spec.Phase,
				"task", req.spec.Task, "affine", req.affine != "", "err", workerErr)
			if req.affine != "" {
				// An affine task cannot move: no other worker holds its
				// peer-delivered buckets. Report the shuffle lost so the
				// engine replays it over the routed path.
				req.done <- taskOutcome{err: p.lost(w.id, req, workerErr.Error(), true)}
				return
			}
			req.attempts = append(req.attempts, mapreduce.TaskAttempt{
				Worker: w.id, Err: workerErr.Error(),
			})
			p.retryOrFail(req)
			return
		case taskErr != nil:
			var lost *mapreduce.ShuffleLostError
			if errors.As(taskErr, &lost) {
				p.shuffleLost.Add(1)
			}
			req.done <- taskOutcome{err: taskErr}
		default:
			res.Worker = w.id
			res.FailedAttempts = req.attempts
			for _, b := range res.Buckets {
				p.routedBucketBytes.Add(int64(len(b)))
			}
			p.directBytes.Add(res.DirectBytes)
			req.done <- taskOutcome{res: res}
		}
	}
}

// retryOrFail re-enqueues a task whose attempt died, after backoff, unless
// its attempt budget is spent or no workers remain.
func (p *pool) retryOrFail(req *taskReq) {
	last := req.attempts[len(req.attempts)-1]
	if len(req.attempts) >= p.cfg.MaxAttempts {
		req.done <- taskOutcome{err: fmt.Errorf(
			"worker: %s task %d failed after %d attempts, last on %s: %s",
			req.spec.Phase, req.spec.Task, len(req.attempts), last.Worker, last.Err)}
		return
	}
	backoff := time.Duration(len(req.attempts)) * p.cfg.RetryBackoff
	// Requeue from a fresh goroutine: this one belongs to a dead worker
	// and must unwind so the pool's live count stays truthful.
	go func() {
		timer := time.NewTimer(backoff)
		defer timer.Stop()
		select {
		case <-timer.C:
		case <-p.quit:
			req.done <- taskOutcome{err: fmt.Errorf(
				"worker: pool closed while retrying %s task %d", req.spec.Phase, req.spec.Task)}
			return
		}
		if err := p.submit(req); err != nil {
			req.done <- taskOutcome{err: fmt.Errorf(
				"worker: cannot reassign %s task %d (attempt %d died on %s: %s): %w",
				req.spec.Phase, req.spec.Task, len(req.attempts), last.Worker, last.Err, err)}
		}
	}()
}

// do runs one attempt on the worker: send the task frame, then consume
// frames until the matching result, treating heartbeats as lease renewals.
// The returned taskErr is a deterministic task failure reported by a
// healthy worker; workerErr means the worker itself is gone (or silent past
// its lease) and the attempt should be reassigned.
func (w *workerHandle) do(req *taskReq, lease time.Duration) (res *mapreduce.TaskResult, taskErr, workerErr error) {
	w.seq++
	seq := w.seq
	traced := req.spec.Trace != "" && !req.spec.Frozen
	var sentAt int64
	if traced {
		sentAt = time.Now().UnixNano()
	}
	if err := w.conn.write(&envelope{Kind: msgTask, Seq: seq, Spec: req.spec}); err != nil {
		return nil, nil, err
	}
	timer := time.NewTimer(lease)
	defer timer.Stop()
	for {
		select {
		case <-timer.C:
			// Lease expired: the worker went silent mid-attempt. Close the
			// connection so its read loop unblocks, and reassign.
			w.closeOnce.Do(w.closeConn)
			return nil, nil, fmt.Errorf("lease expired after %v without heartbeat", lease)
		case f := <-w.frames:
			if f.err != nil {
				if f.err == io.EOF {
					return nil, nil, fmt.Errorf("worker exited mid-task")
				}
				return nil, nil, f.err
			}
			switch f.env.Kind {
			case msgHeartbeat:
				if !timer.Stop() {
					<-timer.C
				}
				timer.Reset(lease)
			case msgResult:
				if f.env.Seq != seq {
					return nil, nil, fmt.Errorf("result for task seq %d, want %d", f.env.Seq, seq)
				}
				if f.env.Err != "" {
					if f.env.ShuffleLost {
						// The worker is healthy but the attempt's peer
						// buckets are gone; surface the typed error so the
						// engine can fall back to the routed path.
						return nil, &mapreduce.ShuffleLostError{
							Worker: w.id, Reducer: req.spec.Task, Reason: f.env.Err, Attempted: true,
						}, nil
					}
					return nil, fmt.Errorf("worker %s: %s", w.id, f.env.Err), nil
				}
				if f.env.Result == nil {
					return nil, nil, fmt.Errorf("result frame without payload")
				}
				if traced {
					// Coordinator-local attribution for the engine's child
					// spans: queue wait, send/receive stamps, and the
					// worker's hello clock-offset estimate.
					r := f.env.Result
					r.RecvAtNanos = time.Now().UnixNano()
					r.SentAtNanos = sentAt
					if req.enqueuedAt != 0 && sentAt > req.enqueuedAt {
						r.QueueNanos = sentAt - req.enqueuedAt
					}
					r.ClockOffsetNanos = w.clockOff
					r.ClockOffsetOK = w.clockOK
				}
				return f.env.Result, nil, nil
			default:
				return nil, nil, fmt.Errorf("unexpected %v frame while awaiting result", f.env.Kind)
			}
		}
	}
}

// drain asks an idle worker to exit and waits briefly for it to acknowledge
// by closing its end of the stream.
func (w *workerHandle) drain(wait time.Duration) {
	defer w.closeOnce.Do(w.closeConn)
	if err := w.conn.write(&envelope{Kind: msgDrain}); err != nil {
		return
	}
	timer := time.NewTimer(wait)
	defer timer.Stop()
	for {
		select {
		case f := <-w.frames:
			if f.err != nil {
				return // stream closed: worker acknowledged the drain
			}
		case <-timer.C:
			return
		}
	}
}

// ShuffleStats reports where a pool's shuffle bucket bytes traveled — the
// observable half of the direct-shuffle optimization. On a healthy direct
// run RoutedBucketBytes is zero: no bucket payload ever crossed a
// coordinator frame, in either direction.
type ShuffleStats struct {
	// DirectBytes are wire bytes workers pushed edge-to-edge (shuffle frame
	// header + session + payload), bypassing the coordinator.
	DirectBytes int64
	// RoutedBucketBytes are bucket payload bytes the coordinator carried
	// inside task and result frames: buckets a failed push retained, the
	// replays of a lost shuffle, and the whole shuffle of a pool none of
	// whose workers could open a receiver.
	RoutedBucketBytes int64
	// Lost counts direct attempts that ended in a ShuffleLostError and fell
	// back to the routed path.
	Lost int64
}

// ShuffleStats reports where the pool's shuffle bytes have traveled so far.
func (p *pool) ShuffleStats() ShuffleStats {
	return ShuffleStats{
		DirectBytes:       p.directBytes.Load(),
		RoutedBucketBytes: p.routedBucketBytes.Load(),
		Lost:              p.shuffleLost.Load(),
	}
}

// close drains the pool: no new tasks are accepted, every idle worker gets
// a drain frame, and the call returns when all lease loops have unwound.
func (p *pool) close() {
	p.mu.Lock()
	alreadyClosed := p.closed
	p.closed = true
	p.mu.Unlock()
	if !alreadyClosed {
		close(p.quit)
	}
	p.wg.Wait()
}
