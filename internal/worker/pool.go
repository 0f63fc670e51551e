package worker

import (
	"fmt"
	"io"
	"log/slog"
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
// per connected worker. TCPExecutor embeds it: the pool runs tasks
// (Execute), the executor owns worker lifecycle (accepting, spawning).
type pool struct {
	cfg   Config
	queue chan *taskReq
	quit  chan struct{}

	mu     sync.Mutex
	live   int
	closed bool
	wg     sync.WaitGroup // worker lease loops

	// routedBucketBytes are the bucket payload bytes map results carried
	// into the coordinator (see ShuffleStats).
	routedBucketBytes atomic.Int64
}

func newPool(cfg Config) *pool {
	return &pool{
		cfg: cfg.fill(),
		// The buffer bounds nothing semantically — the engine has at most
		// its worker-pool width of Executes in flight — it only keeps
		// requeues from ever blocking a dying worker's loop.
		queue: make(chan *taskReq, 4096),
		quit:  make(chan struct{}),
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

// liveWorkers reports how many workers are currently attached.
func (p *pool) liveWorkers() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.live
}

// frameOrErr is one read-loop delivery: a frame, or the read error that
// ended the stream.
type frameOrErr struct {
	env *envelope
	err error
}

// helloInfo is what awaitHello extracts from a worker's hello frame.
type helloInfo struct {
	id       string
	clockOff int64 // estimated worker−coordinator clock offset (nanos), from the hello's WallNanos
	clockOK  bool  // whether clockOff is a real estimate: the hello carried a clock sample
}

type workerHandle struct {
	helloInfo // what the worker announced when it registered
	conn      *frameConn
	closeConn func()
	closeOnce sync.Once
	seq       uint64
	frames    chan frameOrErr
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
		gone:   make(chan struct{}),
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		closeConn()
		return
	}
	p.live++
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
func (p *pool) workerGone(w *workerHandle) {
	defer p.wg.Done()
	w.closeOnce.Do(w.closeConn)
	close(w.gone)
	p.mu.Lock()
	defer p.mu.Unlock()
	p.live--
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
		case req = <-p.queue:
		}
		res, taskErr, workerErr := w.do(req, p.cfg.LeaseTimeout)
		switch {
		case workerErr != nil:
			slog.Warn("worker: attempt failed, dropping worker",
				"worker", w.id, "job", req.spec.Job, "phase", req.spec.Phase,
				"task", req.spec.Task, "err", workerErr)
			req.attempts = append(req.attempts, mapreduce.TaskAttempt{
				Worker: w.id, Err: workerErr.Error(),
			})
			p.retryOrFail(req)
			return
		case taskErr != nil:
			req.done <- taskOutcome{err: taskErr}
		default:
			res.Worker = w.id
			res.FailedAttempts = req.attempts
			for _, b := range res.Buckets {
				p.routedBucketBytes.Add(int64(len(b)))
			}
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

// ShuffleStats reports the shuffle bytes a pool's coordinator carried. Every
// bucket rides the frames: a map result brings it in, a reduce spec takes it
// out again.
type ShuffleStats struct {
	// DirectBytes is always 0: no bucket travels worker to worker. Read by
	// bench/ only, retired with ROADMAP item 10.
	DirectBytes int64 `json:"-"`
	// RoutedBucketBytes are the bucket payload bytes map results carried
	// into the coordinator.
	RoutedBucketBytes int64
	// Lost is always 0: a worker that dies is an ordinary retry. Read by
	// bench/ only, retired with ROADMAP item 10.
	Lost int64 `json:"-"`
}

// ShuffleStats reports the pool's shuffle bytes so far.
func (p *pool) ShuffleStats() ShuffleStats {
	return ShuffleStats{RoutedBucketBytes: p.routedBucketBytes.Load()}
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
