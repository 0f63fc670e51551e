package worker

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/mapreduce"
)

// TCPConfig configures a TCPExecutor.
type TCPConfig struct {
	// Config tunes lease, heartbeat and retry behavior of the pool.
	Config
	// Addr is the listen address. Default "127.0.0.1:0" (an ephemeral
	// loopback port, read back via Addr()).
	Addr string
	// RoutedShuffle disables direct worker-to-worker shuffle planning:
	// PlanShuffle returns nil and every bucket travels through the
	// coordinator, as before the direct data plane existed. Useful as an
	// operational escape hatch and for routed-vs-direct comparisons.
	RoutedShuffle bool
	// ShuffleTimeout bounds how long a direct reduce attempt waits for its
	// peer-delivered buckets before reporting a lost shuffle. Default: the
	// pool's LeaseTimeout.
	ShuffleTimeout time.Duration
}

// TCPExecutor runs task attempts on workers that register over TCP: each
// worker dials the coordinator's listen address, sends a hello frame, and
// leases tasks over the connection. Workers can be external processes
// ("strata worker -connect <addr>") or in-process goroutines (SpawnLocal).
// It implements mapreduce.Executor.
type TCPExecutor struct {
	pool *pool
	cfg  TCPConfig
	ln   net.Listener

	spawned sync.WaitGroup // SpawnLocal serve loops
	spawnN  int
	planN   atomic.Int64 // shuffle sessions handed out
}

// NewTCPExecutor starts listening and accepting worker registrations. It
// returns immediately: use SpawnLocal and/or AwaitWorkers to ensure
// capacity before submitting work — Execute fails fast while no worker is
// attached.
func NewTCPExecutor(cfg TCPConfig) (*TCPExecutor, error) {
	cfg.Config = cfg.Config.fill()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("worker: listening on %s: %w", cfg.Addr, err)
	}
	e := &TCPExecutor{pool: newPool(cfg.Config), cfg: cfg, ln: ln}
	go e.acceptLoop()
	return e, nil
}

func (e *TCPExecutor) acceptLoop() {
	for {
		conn, err := e.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go func() {
			fc := newFrameConn(conn, conn)
			h, err := awaitHello(fc, e.cfg.LeaseTimeout)
			if err != nil {
				slog.Warn("worker: rejecting connection", "remote", conn.RemoteAddr(), "err", err)
				conn.Close()
				return
			}
			slog.Debug("worker: registered", "worker", h.id,
				"remote", conn.RemoteAddr(), "shuffle_addr", h.shuffleAddr)
			e.pool.attach(h, fc, func() { conn.Close() })
		}()
	}
}

// Addr is the coordinator's listen address, for workers to dial.
func (e *TCPExecutor) Addr() string { return e.ln.Addr().String() }

// SpawnLocal starts n in-process workers, each dialing the coordinator
// over a real loopback socket and serving until drained. The full protocol
// — registration, heartbeats, leases, the direct-shuffle data plane — is
// exercised; only process isolation is skipped.
func (e *TCPExecutor) SpawnLocal(n int) {
	e.SpawnLocalOpts(n, ServeOptions{})
}

// SpawnLocalOpts is SpawnLocal with explicit serve options: chaos tests use
// it to plant ExitAfter on a single worker, and comparisons can force
// RoutedShuffle per worker. ID and HeartbeatInterval are filled in.
func (e *TCPExecutor) SpawnLocalOpts(n int, opts ServeOptions) {
	addr := e.Addr()
	opts.HeartbeatInterval = e.cfg.HeartbeatInterval
	opts.RoutedShuffle = opts.RoutedShuffle || e.cfg.RoutedShuffle
	for i := 0; i < n; i++ {
		e.spawnN++
		id := fmt.Sprintf("tcp-%d", e.spawnN)
		e.spawned.Add(1)
		go func() {
			o := opts
			o.ID = id
			defer e.spawned.Done()
			if err := ServeTCP(addr, o); err != nil {
				slog.Warn("worker: local tcp worker exited", "worker", id, "err", err)
			}
		}()
	}
}

// AwaitWorkers blocks until at least n workers are attached, or fails
// after timeout. Run it before the first job when worker placement matters
// (chaos tests, benchmarks), so tasks don't all land on the early joiners.
func (e *TCPExecutor) AwaitWorkers(n int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if live := e.pool.liveWorkers(); live >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("worker: %d of %d workers registered within %v",
				e.pool.liveWorkers(), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// Name reports "tcp".
func (e *TCPExecutor) Name() string { return "tcp" }

// Execute runs one task attempt on the pool, transparently reassigning it
// if its worker dies.
func (e *TCPExecutor) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	return e.pool.execute(spec)
}

// ExecuteOn runs one attempt pinned to the named worker (shuffle affinity).
// It implements mapreduce.DirectShuffler: a dead or unreachable worker
// yields a *mapreduce.ShuffleLostError, never a cross-worker reassignment.
func (e *TCPExecutor) ExecuteOn(worker string, spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	return e.pool.executeOn(worker, spec)
}

// PlanShuffle assigns a job run's reducers round-robin over the attached
// shuffle-capable workers and stamps the plan with a fresh session, so
// back-to-back runs on one pool never mix buckets. It returns nil — meaning
// "use the routed path" — when direct shuffle is disabled or no attached
// worker announced a receiver endpoint.
func (e *TCPExecutor) PlanShuffle(job string, numReducers int) *mapreduce.ShufflePlan {
	if e.cfg.RoutedShuffle || numReducers <= 0 {
		return nil
	}
	ids, endpoints := e.pool.shufflePeers()
	if len(ids) == 0 {
		return nil
	}
	timeout := e.cfg.ShuffleTimeout
	if timeout <= 0 {
		timeout = e.cfg.LeaseTimeout
	}
	plan := &mapreduce.ShufflePlan{
		Session:   fmt.Sprintf("%s#%d", job, e.planN.Add(1)),
		Workers:   make([]string, numReducers),
		Endpoints: make([]string, numReducers),
		TimeoutMs: timeout.Milliseconds(),
	}
	for r := 0; r < numReducers; r++ {
		plan.Workers[r] = ids[r%len(ids)]
		plan.Endpoints[r] = endpoints[r%len(ids)]
	}
	return plan
}

// ShuffleStats reports where this executor's shuffle bytes traveled. On a
// healthy direct run RoutedBucketBytes is zero — the coordinator carried no
// bucket payloads at all.
func (e *TCPExecutor) ShuffleStats() ShuffleStats { return e.pool.shuffleStats() }

// Close drains attached workers, stops accepting registrations and waits
// for local workers to unwind.
func (e *TCPExecutor) Close() error {
	e.pool.close()
	err := e.ln.Close()
	e.spawned.Wait()
	return err
}
