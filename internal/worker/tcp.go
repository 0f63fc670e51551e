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
	// ShuffleTimeout bounds how long a direct reduce attempt waits for its
	// peer-delivered buckets before reporting a lost shuffle. Default: the
	// pool's LeaseTimeout.
	ShuffleTimeout time.Duration
}

// TCPExecutor runs task attempts on workers that register over TCP: each
// worker dials the coordinator's listen address, sends a hello frame, and
// leases tasks over the connection. Workers can be external processes
// ("strata worker -connect <addr>"; SubprocessExecutor starts its own) or
// in-process goroutines (SpawnLocal). It implements mapreduce.Executor.
type TCPExecutor struct {
	*pool // Execute, ExecuteOn and ShuffleStats are the pool's, as is cfg
	ln    net.Listener
	// shuffleTimeout is TCPConfig.ShuffleTimeout with its default resolved.
	shuffleTimeout time.Duration

	spawned sync.WaitGroup // SpawnLocal serve loops
	spawnN  int
	planN   atomic.Int64 // shuffle sessions handed out
}

// NewTCPExecutor starts listening and accepting worker registrations. It
// returns immediately: use SpawnLocal and/or AwaitWorkers to ensure
// capacity before submitting work — Execute fails fast while no worker is
// attached.
func NewTCPExecutor(cfg TCPConfig) (*TCPExecutor, error) {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("worker: listening on %s: %w", cfg.Addr, err)
	}
	e := &TCPExecutor{pool: newPool(cfg.Config), ln: ln, shuffleTimeout: cfg.ShuffleTimeout}
	if e.shuffleTimeout <= 0 {
		e.shuffleTimeout = e.cfg.LeaseTimeout
	}
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
			conn.SetReadDeadline(time.Now().Add(e.cfg.LeaseTimeout)) // a silent dialer is dropped
			h, err := awaitHello(fc)
			conn.SetReadDeadline(time.Time{})
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

// awaitHello reads the worker's hello frame — the caller bounds the read
// with a deadline on the connection — and rejects a peer that speaks another
// wire version (ErrWireVersion). It returns the announced worker identity:
// id, shuffle-receiver endpoint ("" for a worker that could not open one),
// and a clock-offset estimate from the hello's wall-clock sample (clockOK
// false when the hello carried none). The estimate folds the hello's one-way
// transit time into the offset, which is fine for its only use — aligning
// trace spans — since transit is microseconds on the loopback sockets this
// protocol runs over.
func awaitHello(conn *frameConn) (helloInfo, error) {
	env, err := conn.read()
	if err != nil {
		return helloInfo{}, fmt.Errorf("reading hello: %w", err)
	}
	if env.Kind != msgHello {
		return helloInfo{}, fmt.Errorf("expected hello, got %v frame", env.Kind)
	}
	if v := env.WireVersion; v != wireVersion {
		return helloInfo{}, fmt.Errorf("%w: worker %q speaks version %d, this build %d",
			ErrWireVersion, env.ID, v, wireVersion)
	}
	info := helloInfo{id: env.ID, shuffleAddr: env.ShuffleAddr}
	if env.WallNanos != 0 {
		info.clockOff = env.WallNanos - time.Now().UnixNano()
		info.clockOK = true
	}
	return info, nil
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
// it to plant ExitAfter on a single worker. ID and HeartbeatInterval are
// filled in.
func (e *TCPExecutor) SpawnLocalOpts(n int, opts ServeOptions) {
	addr := e.Addr()
	opts.HeartbeatInterval = e.cfg.HeartbeatInterval
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
	for e.liveWorkers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("worker: %d of %d workers registered within %v", e.liveWorkers(), n, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
	return nil
}

// Name reports "tcp".
func (e *TCPExecutor) Name() string { return "tcp" }

// PlanShuffle assigns a job run's reducers round-robin over the attached
// shuffle-capable workers and stamps the plan with a fresh session, so
// back-to-back runs on one pool never mix buckets. It returns nil — meaning
// "use the routed path" — when no attached worker announced a receiver
// endpoint.
func (e *TCPExecutor) PlanShuffle(job string, numReducers int) *mapreduce.ShufflePlan {
	ids, endpoints := e.pool.shufflePeers()
	if len(ids) == 0 || numReducers <= 0 {
		return nil
	}
	plan := &mapreduce.ShufflePlan{
		Session:   fmt.Sprintf("%s#%d", job, e.planN.Add(1)),
		Workers:   make([]string, numReducers),
		Endpoints: make([]string, numReducers),
		TimeoutMs: e.shuffleTimeout.Milliseconds(),
	}
	for r := 0; r < numReducers; r++ {
		plan.Workers[r] = ids[r%len(ids)]
		plan.Endpoints[r] = endpoints[r%len(ids)]
	}
	return plan
}

// Close drains attached workers, stops accepting registrations and waits
// for local workers to unwind.
func (e *TCPExecutor) Close() error {
	e.pool.close()
	err := e.ln.Close()
	e.spawned.Wait()
	return err
}
