package worker

import (
	"fmt"
	"os"
	"os/exec"
	"slices"
	"time"
)

// SubprocessConfig configures a SubprocessExecutor.
type SubprocessConfig struct {
	// Config tunes lease, heartbeat and retry behavior of the pool.
	Config
	// Workers is the number of child processes to start. Default 2.
	Workers int
	// Command is the worker command line, to which the executor appends
	// "-connect <addr>". Default: the current binary's "worker" subcommand,
	// which is correct for the strata CLI; a test binary passes itself and
	// serves from a TestMain hook.
	Command []string
	// ExtraEnv, when non-nil, returns extra environment entries for the
	// i-th worker (appended to os.Environ()). Chaos tests use it to plant
	// ChaosExitEnv on a single worker.
	ExtraEnv func(i int) []string
}

// SubprocessExecutor is a TCPExecutor that brings its own workers: it
// listens on an ephemeral loopback port and runs a fixed pool of child
// processes that dial it as "worker -connect <addr>". The transport, the
// pool and the direct shuffle are the TCPExecutor's; this layer only owns
// the processes — it starts them, fails fast when one dies before
// registering, can kill one on request, and reaps them all on Close.
type SubprocessExecutor struct {
	*TCPExecutor
	// procs is fixed at construction; index i is worker "sp-<i>".
	procs []*workerProc
}

type workerProc struct {
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been waited for
}

// NewSubprocessExecutor starts the coordinator and its worker processes and
// waits until every child has registered, so the first Execute call finds
// the whole pool attached. A child that exits before registering fails the
// construction at once — the error names the worker and its exit status —
// and whatever was started is torn down.
func NewSubprocessExecutor(cfg SubprocessConfig) (*SubprocessExecutor, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if len(cfg.Command) == 0 {
		exe, err := os.Executable()
		if err != nil {
			return nil, fmt.Errorf("worker: resolving own executable: %w", err)
		}
		cfg.Command = []string{exe, "worker"}
	}
	tcp, err := NewTCPExecutor(TCPConfig{Config: cfg.Config})
	if err != nil {
		return nil, err
	}
	e := &SubprocessExecutor{TCPExecutor: tcp}
	args := slices.Concat(cfg.Command[1:], []string{"-connect", tcp.Addr()})
	exited := make(chan int, cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		cmd := exec.Command(cfg.Command[0], args...)
		cmd.Env = append(os.Environ(), fmt.Sprintf("STRATA_WORKER_ID=sp-%d", i))
		if cfg.ExtraEnv != nil {
			cmd.Env = append(cmd.Env, cfg.ExtraEnv(i)...)
		}
		// The coordinator's stdout belongs to the command's answer; whatever
		// a worker prints joins its log on stderr.
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Start(); err != nil {
			e.Close()
			return nil, fmt.Errorf("worker sp-%d: starting %q: %w", i, cfg.Command[0], err)
		}
		proc := &workerProc{cmd: cmd, done: make(chan struct{})}
		e.procs = append(e.procs, proc)
		go func() {
			_ = cmd.Wait() // the status is read from cmd.ProcessState
			close(proc.done)
			exited <- i
		}()
	}
	lease := tcp.cfg.LeaseTimeout
	deadline := time.After(lease)
	for tcp.liveWorkers() < cfg.Workers {
		select {
		case i := <-exited:
			e.Close()
			return nil, fmt.Errorf("worker sp-%d exited before registering: %v", i, e.procs[i].cmd.ProcessState)
		case <-deadline:
			live := tcp.liveWorkers()
			e.Close()
			return nil, fmt.Errorf("worker: %d of %d subprocess workers registered within %v", live, cfg.Workers, lease)
		case <-time.After(5 * time.Millisecond):
		}
	}
	return e, nil
}

// Name reports "subprocess".
func (e *SubprocessExecutor) Name() string { return "subprocess" }

// Kill force-kills the i-th worker process and returns once it is gone — a
// chaos hook for tests that need a worker to die at a point of their
// choosing. The pool learns of the death when it next leases that worker a
// task.
func (e *SubprocessExecutor) Kill(i int) error {
	if i < 0 || i >= len(e.procs) {
		return fmt.Errorf("worker: no subprocess %d", i)
	}
	err := e.procs[i].cmd.Process.Kill()
	<-e.procs[i].done
	return err
}

// Close drains the pool and reaps every worker process, killing any that
// has not exited within the lease timeout. Exit statuses are uninteresting
// here: drained workers exit 0, killed or crashed ones don't, and the pool
// already accounted the failures.
func (e *SubprocessExecutor) Close() error {
	err := e.TCPExecutor.Close()
	for _, proc := range e.procs {
		select {
		case <-proc.done:
		case <-time.After(e.cfg.LeaseTimeout):
			_ = proc.cmd.Process.Kill()
			<-proc.done
		}
	}
	return err
}
