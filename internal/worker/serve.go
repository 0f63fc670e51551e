package worker

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/stratified"
)

// inproc runs every task spec a worker in this process receives: the
// executor of the one job, rebuilt from each spec's config.
var inproc = stratified.Inproc

// ChaosExitEnv, when set to n > 0 in a worker's environment, makes the
// worker exit (status 3) upon receiving its n-th task, before executing it.
// The crash-recovery tests use it to kill a worker mid-job at a
// deterministic point; the coordinator sees the stream die, reassigns the
// leased task and the job still completes correctly.
const ChaosExitEnv = "STRATA_WORKER_EXIT_AFTER"

// ErrChaosExit is returned by ServeTCP when the ChaosExitEnv crash point
// fires. A worker process exits non-zero on it; an in-process worker just
// lets the connection close, which the coordinator handles identically to a
// process death.
var ErrChaosExit = errors.New("worker: chaos exit triggered by " + ChaosExitEnv)

// ServeOptions configures one worker's serve loop. The zero value works:
// the id defaults to the environment's STRATA_WORKER_ID or "pid-<pid>".
type ServeOptions struct {
	// ID is the worker id announced in the hello frame; it tags results,
	// failed attempts, and trace spans.
	ID string
	// HeartbeatInterval is how often the worker writes keep-alive frames.
	// It must stay well under the coordinator's lease timeout. Default 3s.
	HeartbeatInterval time.Duration
	// ExitAfter is the chaos crash point (see ChaosExitEnv, which fills it
	// when zero): receiving the n-th task aborts the loop.
	ExitAfter int
}

func (o ServeOptions) fill() ServeOptions {
	if o.ID == "" {
		o.ID = os.Getenv("STRATA_WORKER_ID")
	}
	if o.ID == "" {
		o.ID = "pid-" + strconv.Itoa(os.Getpid())
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = 3 * time.Second
	}
	if o.ExitAfter == 0 {
		o.ExitAfter, _ = strconv.Atoi(os.Getenv(ChaosExitEnv))
	}
	return o
}

// serve runs one worker over a byte stream: announce the hello, then execute
// task frames serially through inproc until the coordinator
// drains the worker or the stream closes. A heartbeat ticker keeps the
// coordinator's lease alive while tasks execute.
func serve(r io.Reader, w io.Writer, opts ServeOptions) error {
	opts = opts.fill()
	conn := newFrameConn(r, w)
	// The serve loop is the read side that wants per-frame decode timing:
	// traced specs lift it into a decode span.
	conn.measureDecode = true
	hello := &envelope{Kind: msgHello, ID: opts.ID, WireVersion: wireVersion, WallNanos: time.Now().UnixNano()}
	if err := conn.write(hello); err != nil {
		return err
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(opts.HeartbeatInterval)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				// A failed heartbeat means the coordinator is gone; the
				// serve loop's next read reports it, so ignore it here.
				_ = conn.write(&envelope{Kind: msgHeartbeat})
			}
		}
	}()

	received := 0
	for {
		env, err := conn.read()
		if err != nil {
			if err == io.EOF {
				return nil // coordinator closed the stream: clean exit
			}
			return err
		}
		switch env.Kind {
		case msgTask:
			received++
			if opts.ExitAfter > 0 && received >= opts.ExitAfter {
				slog.Warn("worker: chaos exit", "worker", opts.ID, "task_number", received)
				return ErrChaosExit
			}
			reply := &envelope{Kind: msgResult, Seq: env.Seq}
			var rec *spanRecorder
			if env.Spec != nil && env.Spec.Trace != "" {
				rec = &spanRecorder{frozen: env.Spec.Frozen}
				rec.add(mapreduce.PhaseDecode, conn.decodeStart, conn.decodeDur, conn.decodeBytes)
			}
			if env.Spec == nil {
				reply.Err = "task frame without spec"
			} else if res, err := executeSpec(env.Spec, rec); err != nil {
				reply.Err = err.Error()
			} else {
				if rec != nil {
					res.Spans = rec.spans
				}
				reply.Result = res
			}
			if err := conn.write(reply); err != nil {
				return err
			}
		case msgDrain:
			return nil
		case msgHeartbeat:
			// Coordinators don't send these today; tolerate them anyway.
		default:
			return fmt.Errorf("worker %s: unexpected %v frame", opts.ID, env.Kind)
		}
	}
}

// spanRecorder accumulates a traced attempt's worker-side measurements in
// deterministic emission order: decode, then exec. A nil recorder is valid
// and records nothing, so untraced specs pay only nil checks; under a frozen
// coordinator clock the spans keep their identity (phase, bytes) but zero
// every time field.
type spanRecorder struct {
	frozen bool
	spans  []mapreduce.WorkerSpan
}

// add records one span that began at startNanos (unix nanos) and took dur.
func (rec *spanRecorder) add(phase string, startNanos int64, dur time.Duration, bytes int64) {
	if rec == nil {
		return
	}
	ws := mapreduce.WorkerSpan{Phase: phase, Bytes: bytes}
	if !rec.frozen {
		ws.Start = startNanos
		ws.Dur = dur
	}
	rec.spans = append(rec.spans, ws)
}

// executeSpec runs one task attempt through inproc. Every
// error — a panic in the task's code included — is a deterministic task
// failure. rec, when non-nil, collects the attempt's worker-side spans.
func executeSpec(spec *mapreduce.TaskSpec, rec *spanRecorder) (res *mapreduce.TaskResult, err error) {
	// User map/reduce code runs below. A panic in it is that task's failure,
	// reported like any other; the worker goes on to its next task.
	defer func() {
		if r := recover(); r != nil {
			slog.Error("worker: task panicked", "job", spec.Job, "phase", spec.Phase, "task", spec.Task, "panic", r, "stack", string(debug.Stack()))
			res = nil
			err = fmt.Errorf("worker: job %q %s task %d panicked: %v", spec.Job, spec.Phase, spec.Task, r)
		}
	}()
	var t0 time.Time
	if rec != nil {
		t0 = time.Now()
	}
	if res, err = inproc.Execute(spec); err != nil {
		return nil, err
	}
	if rec != nil {
		rec.add(mapreduce.PhaseExec, t0.UnixNano(), time.Since(t0), 0)
	}
	return res, nil
}

// ServeTCP dials a TCPExecutor's address and serves until drained. It is
// the loop behind "strata worker -connect addr" — which is also how
// SubprocessExecutor's children run — and TCPExecutor.SpawnLocal.
func ServeTCP(addr string, opts ServeOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: connecting to coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	return serve(conn, conn, opts)
}
