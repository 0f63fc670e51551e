package mapreduce

import (
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// remoteBackend runs every task as a TaskSpec round-trip through an Executor
// (a worker pool, the in-process registry loopback): payloads travel
// serialized, map buckets either move worker-to-worker under a direct
// ShufflePlan or are retained here and handed to the reduce spec (routed),
// and worker failures come back as extra failed attempts. The engine
// loop (Run) is the same as for in-process execution.
type remoteBackend[S sized, O any] struct {
	exec Executor
	// spec is the template every task spec starts from: job identity, seed,
	// task counts and the frozen-clock flag. Any injected clock cannot be
	// shared with a worker process, so under one workers report zero wall
	// durations and every timestamp comes from the coordinator's clock.
	spec    TaskSpec
	splits  []S
	tctx    *TraceContext // non-nil when specs carry the trace identity
	perKey  bool
	elapsed func() time.Duration // nil when untraced

	// Direct shuffle (control plane only): the assignment of reducers to
	// workers plus the peer endpoints. With a plan the coordinator exchanges
	// only this metadata; the bucket bytes flow between workers.
	ds   DirectShuffler
	plan *ShufflePlan

	// What the map phase leaves behind, per map task: the encoded buckets
	// the coordinator holds (all of them when routed; under a direct plan
	// only those a worker failed to deliver, the rest are nil) and the
	// approximate size of every bucket.
	payloads [][][]byte
	sizes    [][]int64

	// Memoised map replays for the routed fallback of a lost direct shuffle.
	replayMu sync.Mutex
	replayed map[int][][]byte
}

func newRemoteBackend[S sized, O any](
	exec Executor, spec TaskSpec, splits []S,
	tctx *TraceContext, perKey bool, elapsed func() time.Duration,
) *remoteBackend[S, O] {
	b := &remoteBackend[S, O]{
		exec: exec, spec: spec, splits: splits, tctx: tctx, perKey: perKey, elapsed: elapsed,
		payloads: make([][][]byte, len(splits)),
		sizes:    make([][]int64, len(splits)),
		replayed: make(map[int][][]byte),
	}
	if d, ok := exec.(DirectShuffler); ok {
		if p := d.PlanShuffle(spec.Job, spec.NumReducers); p != nil {
			b.ds, b.plan = d, p
			slog.Debug("mapreduce direct shuffle planned", "job", spec.Job,
				"backend", exec.Name(), "session", p.Session, "reducers", spec.NumReducers)
		}
	}
	return b
}

// newSpec copies the template for one task.
func (b *remoteBackend[S, O]) newSpec(phase string, task int) *TaskSpec {
	spec := b.spec
	spec.Phase, spec.Task = phase, task
	return &spec
}

// stamp puts the trace identity on a spec: its successful attempt then comes
// back decomposed into queue/wire/decode/exec/push/recv measurements.
func (b *remoteBackend[S, O]) stamp(spec *TaskSpec) {
	if b.tctx == nil {
		return
	}
	spec.Trace = b.tctx.Trace
	spec.TraceRun = b.tctx.Run
	spec.TraceParent = attemptSpanID(*b.tctx, spec.Job, spec.Phase, spec.Task, 1)
}

// fold copies what the loop needs out of a task result.
func (b *remoteBackend[S, O]) fold(res *TaskResult, a *attempt) {
	a.TaskCounters = res.Counters
	a.custom = res.Custom
	a.worker = res.Worker
	a.failed = res.FailedAttempts
	if b.tctx != nil {
		a.attr = attribution(res)
	}
}

// executeMap ships a map spec with its encoded split and checks the shape of
// the reply: it crossed a process boundary, and the reduce side indexes it
// by reducer.
func (b *remoteBackend[S, O]) executeMap(spec *TaskSpec) (*TaskResult, error) {
	var err error
	if spec.Split, err = encodeValue(b.splits[spec.Task]); err != nil {
		return nil, fmt.Errorf("encoding split of map task %d: %w", spec.Task, err)
	}
	res, err := b.exec.Execute(spec)
	if err != nil {
		return nil, fmt.Errorf("map task %d on %s executor: %w", spec.Task, b.exec.Name(), err)
	}
	if n := spec.NumReducers; len(res.Buckets) != n || len(res.Counters.BucketSizes) != n {
		return nil, fmt.Errorf("map task %d on %s executor: worker %q returned %d buckets and %d bucket sizes, want %d of each",
			spec.Task, b.exec.Name(), res.Worker, len(res.Buckets), len(res.Counters.BucketSizes), n)
	}
	return res, nil
}

func (b *remoteBackend[S, O]) runMap(task int, out *mapOutcome) error {
	spec := b.newSpec("map", task)
	spec.Shuffle = b.plan
	b.stamp(spec)
	res, err := b.executeMap(spec)
	if err != nil {
		return err
	}
	b.fold(res, &out.attempt)
	// Account the same approximate sizes the in-process backend would, so
	// metrics agree across backends; under a direct plan Buckets is sparse
	// but the sizes still describe every bucket.
	b.payloads[task], b.sizes[task] = res.Buckets, res.Counters.BucketSizes
	for _, n := range res.Counters.BucketSizes {
		out.sent(n)
	}
	return nil
}

func (b *remoteBackend[S, O]) runReduce(r int, out *reduceOutcome[O]) error {
	spec := b.newSpec("reduce", r)
	spec.CollectKeys = b.perKey
	b.stamp(spec)
	// The reducer's bucket column. Routed, that is every bucket; direct, the
	// reducer's worker already holds what its peers pushed and only the
	// stragglers the map phase had to retain (a send to a dead endpoint keeps
	// the payload on the coordinator) ride along.
	spec.Buckets = make([][]byte, len(b.payloads))
	for t := range b.payloads {
		spec.Buckets[t] = b.payloads[t][r]
		if b.elapsed != nil {
			out.recvBytes += b.sizes[t][r]
		}
	}
	var res *TaskResult
	var err error
	var assembled time.Duration // routed: the coordinator's own receive wall
	if b.plan != nil {
		// Pin the reduce to the worker the plan named.
		spec.Shuffle = b.plan
		res, err = b.ds.ExecuteOn(b.plan.Workers[r], spec)
		var lost *ShuffleLostError
		if errors.As(err, &lost) {
			res, err = b.routedFallback(r, spec, lost)
		}
	} else {
		if b.elapsed != nil {
			assembled = b.elapsed() - out.start
		}
		res, err = b.exec.Execute(spec)
	}
	if err != nil {
		return fmt.Errorf("reduce task %d on %s executor: %w", r, b.exec.Name(), err)
	}
	b.fold(res, &out.attempt)
	if b.plan != nil {
		// The receive happened inside the worker's task execution: RecvWall
		// is the worker's reading (zero under a frozen clock, like every
		// other worker-side wall) and the recv span is tagged with it.
		out.recvWorker = res.Worker
	} else {
		out.RecvWall = assembled
	}
	out.perKey = res.PerKey
	if out.out, err = DecodeTaskOutput[O](res.Output); err != nil {
		return fmt.Errorf("reducer %d: %w", r, err)
	}
	return nil
}

// routedFallback serves a direct-shuffle reducer whose peer-held buckets were
// lost (worker crash, missing receiver, peer receive timeout): the coordinator
// rebuilds the reducer's bucket column and runs the reduce routed, on any
// worker. Map re-execution is deterministic — the same split, seed and task
// id produce byte-identical buckets — and memoized, so several lost reducers
// share one replay per map task.
func (b *remoteBackend[S, O]) routedFallback(r int, spec *TaskSpec, lost *ShuffleLostError) (*TaskResult, error) {
	slog.Warn("mapreduce: direct shuffle lost, replaying buckets over the routed path",
		"job", spec.Job, "reducer", r, "worker", lost.Worker, "reason", lost.Reason)
	routed := *spec
	routed.Shuffle = nil
	routed.Buckets = make([][]byte, len(b.payloads))
	for t := range b.payloads {
		if held := b.payloads[t][r]; len(held) > 0 {
			routed.Buckets[t] = held // retained by the map phase, never left the coordinator
			continue
		}
		bks, err := b.replayBuckets(t)
		if err != nil {
			return nil, fmt.Errorf("replaying buckets of map task %d: %w", t, err)
		}
		routed.Buckets[t] = bks[r]
	}
	res, err := b.exec.Execute(&routed)
	if err != nil {
		return nil, err
	}
	if lost.Attempted {
		// The lost direct attempt ran (at least partially) on a real worker
		// and died, so it precedes the successful routed attempt — the same
		// ordering crash recovery uses for re-executed tasks.
		res.FailedAttempts = append([]TaskAttempt{{Worker: lost.Worker, Err: lost.Reason}}, res.FailedAttempts...)
	}
	return res, nil
}

func (b *remoteBackend[S, O]) replayBuckets(task int) ([][]byte, error) {
	b.replayMu.Lock()
	defer b.replayMu.Unlock()
	if bks, ok := b.replayed[task]; ok {
		return bks, nil
	}
	res, err := b.executeMap(b.newSpec("map", task))
	if err != nil {
		return nil, err
	}
	b.replayed[task] = res.Buckets
	return res.Buckets, nil
}

// taskAttribution is the per-task latency attribution a traced remote
// attempt comes back with: the worker's own spans plus the pool's queue and
// round-trip timing and the worker's clock-offset estimate.
type taskAttribution struct {
	spans          []WorkerSpan
	queueNanos     int64
	sentAt, recvAt int64
	clockOff       int64
	clockOK        bool
}

func attribution(res *TaskResult) *taskAttribution {
	return &taskAttribution{
		spans:      res.Spans,
		queueNanos: res.QueueNanos,
		sentAt:     res.SentAtNanos,
		recvAt:     res.RecvAtNanos,
		clockOff:   res.ClockOffsetNanos,
		clockOK:    res.ClockOffsetOK,
	}
}

// emitRemoteChildren decomposes one successful remote attempt into child
// spans parented under the attempt span: the pool-measured queue wait, the
// derived wire time — (recv − send) − Σ worker-measured durations, which
// needs no clock alignment — and the worker's own decode/exec/push/recv
// measurements. Worker span starts are aligned to the coordinator timeline
// via the hello clock-offset estimate when available, else stacked
// sequentially after the wire span. Under a frozen clock every duration and
// start is zero and only the deterministic identity (phase, bytes, ids)
// remains, preserving byte-identical golden span files.
func emitRemoteChildren(
	tr Tracer, ctx TraceContext, job, phase string, task, attempt int,
	parentStart time.Duration, attr *taskAttribution, worker string,
	startUnix int64, frozen bool,
) {
	parent := attemptSpanID(ctx, job, phase, task, attempt)
	var queue time.Duration
	if !frozen && attr.queueNanos > 0 {
		queue = time.Duration(attr.queueNanos)
	}
	tr.Emit(Span{
		Job: job, Phase: PhaseQueue, Task: task,
		Start: parentStart, Wall: queue, Worker: worker,
		ID: childSpanID(ctx, job, phase, task, attempt, PhaseQueue), Parent: parent,
	})
	var wireDur time.Duration
	if !frozen && attr.recvAt > attr.sentAt {
		wireDur = time.Duration(attr.recvAt - attr.sentAt)
		for _, ws := range attr.spans {
			wireDur -= ws.Dur
		}
		if wireDur < 0 {
			wireDur = 0
		}
	}
	cursor := parentStart + queue
	tr.Emit(Span{
		Job: job, Phase: PhaseWire, Task: task,
		Start: cursor, Wall: wireDur, Worker: worker,
		ID: childSpanID(ctx, job, phase, task, attempt, PhaseWire), Parent: parent,
	})
	cursor += wireDur
	for _, ws := range attr.spans {
		s := Span{
			Job: job, Phase: ws.Phase, Task: task,
			Start: cursor, Wall: ws.Dur, Bytes: ws.Bytes, Worker: worker,
			ID: childSpanID(ctx, job, phase, task, attempt, ws.Phase), Parent: parent,
		}
		if !frozen && attr.clockOK && ws.Start != 0 {
			if rel := time.Duration(ws.Start - attr.clockOff - startUnix); rel > 0 {
				s.Start = rel
			}
		}
		tr.Emit(s)
		cursor = s.Start + ws.Dur
	}
}
