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
)

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

	// openReceiver replaces newShuffleReceiver when non-nil: the seam tests
	// reach (export_test.go) to make the open fail.
	openReceiver func() (*shuffleReceiver, error)
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

// serve runs one worker over a byte stream: announce the hello — with recv's
// endpoint, when the worker has a shuffle receiver — then execute task frames
// serially through mapreduce.ExecuteTask until the coordinator drains the
// worker or the stream closes. A heartbeat ticker keeps the coordinator's
// lease alive while tasks execute.
func serve(r io.Reader, w io.Writer, opts ServeOptions, recv *shuffleReceiver) error {
	opts = opts.fill()
	conn := newFrameConn(r, w)
	// The serve loop is the read side that wants per-frame decode timing:
	// traced specs lift it into a decode span.
	conn.measureDecode = true
	hello := &envelope{Kind: msgHello, ID: opts.ID, WireVersion: wireVersion, WallNanos: time.Now().UnixNano()}
	if recv != nil {
		hello.ShuffleAddr = recv.addr()
	}
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
				rec.addMeasured(mapreduce.PhaseDecode, conn.decodeStart, conn.decodeDur, conn.decodeBytes)
			}
			if env.Spec == nil {
				reply.Err = "task frame without spec"
			} else if res, lost, err := executeSpec(env.Spec, recv, rec); err != nil {
				reply.Err = err.Error()
				reply.ShuffleLost = lost
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
// deterministic emission order: decode, then recv (direct reduce), then
// exec, then push (direct map). A nil recorder is valid and records nothing,
// so untraced specs pay only nil checks; under a frozen coordinator clock
// the spans keep their identity (phase, bytes) but zero every time field.
type spanRecorder struct {
	frozen bool
	spans  []mapreduce.WorkerSpan
}

// start returns the measurement origin for add (zero when not recording).
func (rec *spanRecorder) start() time.Time {
	if rec == nil || rec.frozen {
		return time.Time{}
	}
	return time.Now()
}

// add records one span measured from t0 to now.
func (rec *spanRecorder) add(phase string, t0 time.Time, bytes int64) {
	if rec == nil {
		return
	}
	ws := mapreduce.WorkerSpan{Phase: phase, Bytes: bytes}
	if !rec.frozen {
		ws.Start = t0.UnixNano()
		ws.Dur = time.Since(t0)
	}
	rec.spans = append(rec.spans, ws)
}

// addMeasured records one span whose timing was captured elsewhere (the
// frame decode, measured inside frameConn.read).
func (rec *spanRecorder) addMeasured(phase string, startNanos int64, dur time.Duration, bytes int64) {
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

// executeSpec runs one task attempt, wrapping mapreduce.ExecuteTask with the
// direct-shuffle data plane when the spec carries a ShufflePlan: map attempts
// push their buckets straight to the reducers' endpoints, reduce attempts
// pull their missing buckets from this worker's receiver. lost=true flags a
// recoverable lost shuffle (the coordinator replays over the routed path);
// every other error — a panic in the task's code included — is a
// deterministic task failure. rec, when non-nil, collects the attempt's
// worker-side spans.
func executeSpec(spec *mapreduce.TaskSpec, recv *shuffleReceiver, rec *spanRecorder) (res *mapreduce.TaskResult, lost bool, err error) {
	// User map/reduce code runs below. A panic in it is that task's failure,
	// reported like any other; the worker goes on to its next task.
	defer func() {
		if r := recover(); r != nil {
			slog.Error("worker: task panicked", "job", spec.Job, "phase", spec.Phase, "task", spec.Task, "panic", r, "stack", string(debug.Stack()))
			res, lost = nil, false
			err = fmt.Errorf("worker: job %q %s task %d panicked: %v", spec.Job, spec.Phase, spec.Task, r)
		}
	}()
	if spec.Shuffle != nil && spec.Phase == "reduce" {
		return executeDirectReduce(spec, recv, rec)
	}
	t0 := rec.start()
	if res, err = mapreduce.ExecuteTask(spec); err != nil {
		return nil, false, err
	}
	rec.add(mapreduce.PhaseExec, t0, 0)
	if spec.Shuffle != nil && spec.Phase == "map" {
		p0 := rec.start()
		deliverBuckets(spec, res)
		rec.add(mapreduce.PhasePush, p0, res.DirectBytes)
	}
	return res, false, nil
}

// deliverBuckets pushes a map attempt's buckets to their reducers' endpoints,
// grouped so each destination worker is dialed once per attempt. Delivered
// buckets are nilled out of the result — the coordinator must not carry them —
// and their wire bytes accumulate in DirectBytes. A failed push (dead or
// unreachable endpoint) retains the undelivered payloads in the result, so
// the coordinator keeps them as the routed fallback for exactly those buckets.
func deliverBuckets(spec *mapreduce.TaskSpec, res *mapreduce.TaskResult) {
	plan := spec.Shuffle
	groups := make(map[string][]int)
	var order []string
	for r := range res.Buckets {
		if r >= len(plan.Endpoints) || plan.Endpoints[r] == "" {
			continue
		}
		ep := plan.Endpoints[r]
		if _, ok := groups[ep]; !ok {
			order = append(order, ep)
		}
		groups[ep] = append(groups[ep], r)
	}
	for _, ep := range order {
		sent, n, err := shuffleSendGroup(ep, plan.Session, spec.Task, groups[ep], res.Buckets)
		res.DirectBytes += int64(n)
		for _, r := range sent {
			res.Buckets[r] = nil
		}
		if err != nil {
			slog.Warn("worker: direct bucket push failed, retaining for routed fallback",
				"job", spec.Job, "map_task", spec.Task, "endpoint", ep,
				"delivered", len(sent), "retained", len(groups[ep])-len(sent), "err", err)
		}
	}
}

// executeDirectReduce waits for the reduce attempt's peer-delivered buckets,
// then runs the task core on the completed bucket set. Buckets the
// coordinator shipped inline (retained by a map attempt whose push failed)
// are used as-is; only true holes are awaited.
func executeDirectReduce(spec *mapreduce.TaskSpec, recv *shuffleReceiver, rec *spanRecorder) (*mapreduce.TaskResult, bool, error) {
	plan := spec.Shuffle
	// The bucket set below is sized by a count that came off the socket.
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	if recv == nil {
		return nil, true, fmt.Errorf("worker: no shuffle receiver for direct reduce task %d", spec.Task)
	}
	buckets := make([][]byte, spec.NumMapTasks)
	copy(buckets, spec.Buckets)
	var need []int
	for t := range buckets {
		if len(buckets[t]) == 0 {
			need = append(need, t)
		}
	}
	var recvWall time.Duration
	if len(need) > 0 {
		start := time.Now()
		got, err := recv.receive(plan.Session, spec.Task, need, plan.Timeout())
		if err != nil {
			return nil, true, err
		}
		if !spec.Frozen {
			recvWall = time.Since(start)
		}
		var recvBytes int64
		for t, payload := range got {
			buckets[t] = payload
			recvBytes += int64(len(payload))
		}
		rec.addMeasured(mapreduce.PhaseRecv, start.UnixNano(), recvWall, recvBytes)
	}
	filled := *spec
	filled.Buckets = buckets
	filled.Shuffle = nil
	t0 := rec.start()
	res, err := mapreduce.ExecuteTask(&filled)
	if err != nil {
		return nil, false, err
	}
	rec.add(mapreduce.PhaseExec, t0, 0)
	res.Counters.RecvWall = recvWall
	recv.forget(plan.Session, spec.Task)
	return res, false, nil
}

// ServeTCP dials a TCPExecutor's address and serves until drained. It is
// the loop behind "strata worker -connect addr" — which is also how
// SubprocessExecutor's children run — and TCPExecutor.SpawnLocal. The worker
// opens an embedded shuffle receiver and announces its endpoint in the hello
// frame, which makes it eligible for direct worker-to-worker bucket
// delivery; one that cannot open a receiver serves anyway, announces none,
// and is never planned a reducer.
func ServeTCP(addr string, opts ServeOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: connecting to coordinator %s: %w", addr, err)
	}
	defer conn.Close()
	open := opts.openReceiver
	if open == nil {
		open = newShuffleReceiver
	}
	recv, err := open()
	if err != nil {
		slog.Warn("worker: direct shuffle unavailable, serving routed", "err", err)
	} else {
		defer recv.close()
	}
	return serve(conn, conn, opts, recv)
}
