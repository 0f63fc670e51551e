package worker

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"time"

	"repro/internal/mapreduce"
)

// SubprocessConfig configures a SubprocessExecutor.
type SubprocessConfig struct {
	// Config tunes lease, heartbeat and retry behavior of the pool.
	Config
	// Workers is the number of child processes to start. Default 2.
	Workers int
	// Command is the worker command line; default re-executes the current
	// binary as "worker -stdio", which is correct for the strata CLI and
	// for test binaries with a matching helper-process hook.
	Command []string
	// ExtraEnv, when non-nil, returns extra environment entries for the
	// i-th worker (appended to os.Environ()). Chaos tests use it to plant
	// ChaosExitEnv on a single worker.
	ExtraEnv func(i int) []string
}

// SubprocessExecutor runs task attempts on a fixed pool of child worker
// processes, speaking the frame protocol over their stdio pipes. It
// implements mapreduce.Executor.
type SubprocessExecutor struct {
	pool *pool
	cfg  SubprocessConfig
	// procs is fixed at construction; index i is the i-th spawned worker.
	procs []*workerProc
}

type workerProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
}

// NewSubprocessExecutor starts the worker processes and waits for every
// hello before returning, so the first Execute call finds the whole pool
// attached. Any spawn or handshake failure tears down what was started.
func NewSubprocessExecutor(cfg SubprocessConfig) (*SubprocessExecutor, error) {
	cfg.Config = cfg.Config.fill()
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if len(cfg.Command) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("worker: resolving own executable: %w", err)
		}
		cfg.Command = []string{exe, "worker", "-stdio"}
	}
	e := &SubprocessExecutor{pool: newPool(cfg.Config), cfg: cfg}
	for i := 0; i < cfg.Workers; i++ {
		if err := e.spawn(i); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

func (e *SubprocessExecutor) spawn(i int) error {
	cmd := exec.Command(e.cfg.Command[0], e.cfg.Command[1:]...)
	cmd.Env = append(os.Environ(), fmt.Sprintf("STRATA_WORKER_ID=sp-%d", i))
	if e.cfg.ExtraEnv != nil {
		cmd.Env = append(cmd.Env, e.cfg.ExtraEnv(i)...)
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return fmt.Errorf("worker sp-%d: %w", i, err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return fmt.Errorf("worker sp-%d: %w", i, err)
	}
	cmd.Stderr = os.Stderr // worker logs pass through; stdout is protocol-only
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("worker sp-%d: starting %q: %w", i, e.cfg.Command[0], err)
	}
	proc := &workerProc{cmd: cmd, stdin: stdin}
	e.procs = append(e.procs, proc)
	conn := newFrameConn(stdout, stdin)
	h, err := awaitHello(conn, e.cfg.LeaseTimeout)
	if err != nil {
		return fmt.Errorf("worker sp-%d: %w", i, err)
	}
	// Stdio workers never announce a shuffle receiver (their only channel is
	// the coordinator pipe), so this executor always shuffles routed.
	h.shuffleAddr = ""
	e.pool.attach(h, conn, func() {
		// Closing stdin EOFs the worker's serve loop; a healthy worker
		// exits on its own, a hung one is reaped (and killed) by Close.
		// Closing stdout too unblocks the pool's read loop before the
		// process is reaped (Wait invalidates the pipe).
		stdin.Close()
		stdout.Close()
	})
	return nil
}

// awaitHello reads the worker's hello frame, bounded by timeout, and rejects
// a peer that speaks another wire version (ErrWireVersion). It returns the
// announced worker identity: id, shuffle-receiver endpoint ("" for
// routed-only workers), and a clock-offset estimate from the hello's
// wall-clock sample (clockOK false when the hello carried none). The
// estimate folds the hello's one-way transit time into the offset, which is
// fine for its only use — aligning trace spans — since transit is
// microseconds on the loopback and pipe transports this protocol runs over.
func awaitHello(conn *frameConn, timeout time.Duration) (helloInfo, error) {
	type helloOrErr struct {
		env *envelope
		err error
	}
	ch := make(chan helloOrErr, 1)
	go func() {
		env, err := conn.read()
		ch <- helloOrErr{env, err}
	}()
	select {
	case <-time.After(timeout):
		return helloInfo{}, fmt.Errorf("timed out after %v waiting for hello", timeout)
	case h := <-ch:
		if h.err != nil {
			return helloInfo{}, fmt.Errorf("reading hello: %w", h.err)
		}
		if h.env.Kind != msgHello {
			return helloInfo{}, fmt.Errorf("expected hello, got %v frame", h.env.Kind)
		}
		if v := h.env.WireVersion; v != wireVersion {
			return helloInfo{}, fmt.Errorf("%w: worker %q speaks version %d, this build %d",
				ErrWireVersion, h.env.ID, v, wireVersion)
		}
		info := helloInfo{id: h.env.ID, shuffleAddr: h.env.ShuffleAddr}
		if h.env.WallNanos != 0 {
			info.clockOff = h.env.WallNanos - time.Now().UnixNano()
			info.clockOK = true
		}
		return info, nil
	}
}

// Name reports "subprocess".
func (e *SubprocessExecutor) Name() string { return "subprocess" }

// Execute runs one task attempt on the pool, transparently reassigning it
// if its worker dies.
func (e *SubprocessExecutor) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	return e.pool.execute(spec)
}

// ShuffleStats reports where this executor's shuffle bytes traveled. A
// subprocess pool always shuffles through the coordinator, so DirectBytes
// stays zero and RoutedBucketBytes counts the whole shuffle.
func (e *SubprocessExecutor) ShuffleStats() ShuffleStats { return e.pool.shuffleStats() }

// Kill force-kills the i-th worker process — a chaos hook for tests that
// need a worker to die at a point of their choosing.
func (e *SubprocessExecutor) Kill(i int) error {
	if i < 0 || i >= len(e.procs) {
		return fmt.Errorf("worker: no subprocess %d", i)
	}
	return e.procs[i].cmd.Process.Kill()
}

// Close drains the pool and reaps every worker process, killing any that
// has not exited within the lease timeout.
func (e *SubprocessExecutor) Close() error {
	e.pool.close()
	for _, proc := range e.procs {
		waitOrKill(proc.cmd, e.cfg.LeaseTimeout)
	}
	return nil
}

func waitOrKill(cmd *exec.Cmd, timeout time.Duration) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Exit status is uninteresting: drained workers exit 0, killed or
		// crashed ones don't, and the pool already accounted the failures.
		_ = cmd.Wait()
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		_ = cmd.Process.Kill()
		<-done
	}
}
