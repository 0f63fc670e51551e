package mapreduce

import (
	"fmt"
	"time"
)

// remoteBackend runs every task as a TaskSpec round-trip through an Executor
// (a worker pool, or NewInproc's loopback): payloads travel
// serialized, a map result brings its buckets back here and each reduce spec
// carries its reducer's column of them, and worker failures come back as
// extra failed attempts. The engine loop (Run) is the same as for in-process
// execution.
type remoteBackend[S sized, O any] struct {
	exec Executor
	// split and output are the job's codecs for what the coordinator
	// encodes and decodes itself; buckets pass through it as bytes.
	split  Codec[S]
	output Codec[[]O]
	// spec is the template every task spec starts from: job identity, seed,
	// reducer count and the frozen-clock flag. Any injected clock cannot be
	// shared with a worker process, so under one workers report zero wall
	// durations and every timestamp comes from the coordinator's clock.
	spec    TaskSpec
	splits  []S
	tctx    *TraceContext // non-nil when specs carry the trace identity
	perKey  bool
	elapsed func() time.Duration // nil when untraced

	// What the map phase leaves behind, per map task: the encoded buckets
	// and the approximate size of every bucket.
	payloads [][][]byte
	sizes    [][]int64
}

func newRemoteBackend[S sized, O any](
	exec Executor, split Codec[S], output Codec[[]O], spec TaskSpec, splits []S,
	tctx *TraceContext, perKey bool, elapsed func() time.Duration,
) *remoteBackend[S, O] {
	return &remoteBackend[S, O]{
		exec: exec, split: split, output: output, spec: spec, splits: splits, tctx: tctx, perKey: perKey, elapsed: elapsed,
		payloads: make([][][]byte, len(splits)),
		sizes:    make([][]int64, len(splits)),
	}
}

// newSpec copies the template for one task.
func (b *remoteBackend[S, O]) newSpec(phase string, task int) *TaskSpec {
	spec := b.spec
	spec.Phase, spec.Task = phase, task
	return &spec
}

// stamp puts the trace identity on a spec: its successful attempt then comes
// back decomposed into queue/wire/decode/exec measurements.
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

// runMap ships a map spec with its encoded split and checks the shape of the
// reply: it crossed a process boundary, and the reduce side indexes it by
// reducer.
func (b *remoteBackend[S, O]) runMap(task int, out *mapOutcome) error {
	spec := b.newSpec("map", task)
	b.stamp(spec)
	spec.Split = encodeValue(b.split, b.splits[task])
	res, err := b.exec.Execute(spec)
	if err != nil {
		return fmt.Errorf("map task %d on %s executor: %w", task, b.exec.Name(), err)
	}
	if n := spec.NumReducers; len(res.Buckets) != n || len(res.Counters.BucketSizes) != n {
		return fmt.Errorf("map task %d on %s executor: worker %q returned %d buckets and %d bucket sizes, want %d of each",
			task, b.exec.Name(), res.Worker, len(res.Buckets), len(res.Counters.BucketSizes), n)
	}
	b.fold(res, &out.attempt)
	// Account the same approximate sizes the in-process backend would, so
	// metrics agree across backends.
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
	spec.Buckets = make([][]byte, len(b.payloads))
	for t := range b.payloads {
		spec.Buckets[t] = b.payloads[t][r]
		if b.elapsed != nil {
			out.recvBytes += b.sizes[t][r]
		}
	}
	if b.elapsed != nil {
		// The coordinator's own receive wall: assembling the column.
		out.recvWall = b.elapsed() - out.start
	}
	res, err := b.exec.Execute(spec)
	if err != nil {
		return fmt.Errorf("reduce task %d on %s executor: %w", r, b.exec.Name(), err)
	}
	b.fold(res, &out.attempt)
	out.perKey = res.PerKey
	if out.out, err = decodeValue(b.output, res.Output); err != nil {
		return fmt.Errorf("reducer %d: mapreduce: decoding reduce output: %w", r, err)
	}
	return nil
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
// needs no clock alignment — and the worker's own decode/exec measurements. Worker span starts are aligned to the coordinator timeline
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
