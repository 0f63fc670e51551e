package mapreduce

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"
)

// runRemote executes a portable job through an Executor: map, combine and
// reduce attempts run on the executor's workers (subprocess pools, TCP
// workers, ...) while the coordinator — this function — keeps everything
// that defines the engine's observable behavior: scheduling, fault-model
// accounting, metric folding and span emission, in exactly the order the
// in-process path (Run) uses. Under a frozen clock and fixed seed the span
// stream and job output are byte-identical to in-process execution, modulo
// the Span.Worker tag; that is the contract the cross-backend golden test
// locks in.
//
// Differences from the in-process path are confined to genuine distribution
// effects: task payloads travel serialized (gob, the Transport wire format),
// and real worker failures surface as extra failed attempt spans — tagged
// with the worker that died — ahead of the deterministic fault-model
// attempts.
func runRemote[I any, K comparable, V any, O any](
	c *Cluster, job *Job[I, K, V, O], splits [][]I, numReducers int,
	exec Executor, transport Transport, tr Tracer, met *Metrics,
	now func() time.Time, start time.Time,
) (*Result[O], error) {
	elapsed := func() time.Duration { return now().Sub(start) }
	perKey := c.PerKeyMetrics || tr != nil
	logDebug := slog.Default().Enabled(context.Background(), slog.LevelDebug)
	// Any injected clock (FrozenClock above all) cannot be shared with a
	// worker process, so workers report zero wall durations and every
	// coordinator-side timestamp comes from the injected clock — which is
	// what keeps traced runs reproducible.
	frozen := c.Clock != nil

	// Distributed tracing: with a TraceContext (and an enabled tracer, in
	// which case tr arrives here already wrapped in the span stamper),
	// every TaskSpec carries the trace identity and every successful
	// attempt decomposes into queue/wire/decode/exec/push/recv child
	// spans from the pool's and the worker's own measurements.
	tctx := c.TraceContext
	if tr == nil {
		tctx = nil
	}
	var startUnix int64
	if tctx != nil && !frozen {
		startUnix = start.UnixNano()
	}
	stampSpec := func(spec *TaskSpec, phase string, task int) {
		if tctx == nil {
			return
		}
		spec.Trace = tctx.Trace
		spec.TraceRun = tctx.Run
		spec.TraceParent = attemptSpanID(*tctx, job.Name, phase, task, 1)
	}

	// ---- Direct shuffle plan (control plane only) ----
	// When the executor can move buckets worker-to-worker and no explicit
	// Transport was asked for, obtain a shuffle plan: the assignment of
	// reducers to workers plus the peer endpoints. From here on the
	// coordinator exchanges only this metadata; the bucket bytes themselves
	// flow between workers.
	var plan *ShufflePlan
	var ds DirectShuffler
	if transport == nil {
		if d, ok := exec.(DirectShuffler); ok {
			if p := d.PlanShuffle(job.Name, numReducers); p != nil {
				ds, plan = d, p
				if logDebug {
					slog.Debug("mapreduce direct shuffle planned", "job", job.Name,
						"backend", exec.Name(), "session", p.Session, "reducers", numReducers)
				}
			}
		}
	}

	// ---- Map phase (pipelined: each task's buckets ship as they exist) ----
	type remoteMapState struct {
		payloads                                 [][]byte // per-reducer payloads, retained without a transport
		counters                                 TaskCounters
		custom                                   map[string]*Histogram
		worker                                   string
		failed                                   []TaskAttempt
		shuffleBytes                             int64
		bucketBytes                              Histogram
		startOff, mapDone, combineDone, sendDone time.Duration
		attr                                     taskAttribution
	}
	states := make([]remoteMapState, len(splits))
	taskErrs := make([]error, len(splits))

	runParallel(len(splits), c.workers(), func(task int) {
		st := &states[task]
		if tr != nil {
			st.startOff = elapsed()
		}
		splitPayload, err := encodeSlice(splits[task])
		if err != nil {
			taskErrs[task] = fmt.Errorf("encoding split of map task %d: %w", task, err)
			return
		}
		spec := &TaskSpec{
			Job: job.Name, Maker: job.Maker, Config: job.Config,
			Phase: "map", Task: task, Seed: job.Seed,
			NumReducers: numReducers, NumMapTasks: len(splits),
			Split: splitPayload, Frozen: frozen, Shuffle: plan,
		}
		stampSpec(spec, PhaseMap, task)
		res, err := exec.Execute(spec)
		if err != nil {
			taskErrs[task] = fmt.Errorf("map task %d on %s executor: %w", task, exec.Name(), err)
			return
		}
		if tctx != nil {
			st.attr = attribution(res)
		}
		st.counters = res.Counters
		st.custom = res.Custom
		st.worker = res.Worker
		st.failed = res.FailedAttempts
		if tr != nil {
			st.mapDone = st.startOff + res.Counters.MapWall
			st.combineDone = st.mapDone + res.Counters.CombineWall
		}
		if transport != nil {
			for r, payload := range res.Buckets {
				n, err := transport.Send(task, r, payload)
				if err != nil {
					taskErrs[task] = err
					return
				}
				st.shuffleBytes += int64(n)
				st.bucketBytes.Observe(int64(n))
			}
		} else {
			// No transport: keep the payloads for the reduce phase and
			// account the same approximate sizes the in-process engine
			// would, so metrics agree across backends. Under a direct
			// shuffle plan Buckets is sparse — nil for every bucket the
			// worker already delivered to its peer — but the counters still
			// describe all of them, so the accounting is unchanged.
			st.payloads = res.Buckets
			for _, n := range res.Counters.BucketSizes {
				st.shuffleBytes += n
				st.bucketBytes.Observe(n)
			}
		}
		if tr != nil {
			st.sendDone = elapsed()
		}
	})
	for _, err := range taskErrs {
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
	}

	mapDurations := make([]time.Duration, len(splits))
	for t := range states {
		st := &states[t]
		met.MapInputRecords += st.counters.In
		met.MapOutputRecords += st.counters.Out
		met.CombineInputRecs += st.counters.CombineIn
		met.CombineOutputRecs += st.counters.CombineOut
		met.ShuffleBytes += st.shuffleBytes
		met.BucketBytes.Merge(st.bucketBytes)
		met.mergeCustom(st.custom)
		base := c.Cost.TaskOverhead +
			time.Duration(st.counters.In)*c.Cost.MapPerRecord +
			time.Duration(st.counters.CombineIn)*c.Cost.CombinePerRecord
		plan, err := c.Faults.plan("map", t)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
		met.MapAttempts += int64(plan.attempts + len(st.failed))
		mapDurations[t] = time.Duration(float64(base) * plan.factor)
		met.MapTaskNanos.Observe(int64(mapDurations[t]))
		if tr != nil {
			sent := st.counters.Out
			if job.combines() {
				sent = st.counters.CombineOut
			}
			// Real failures first: a crashed worker or an expired lease is
			// an attempt that genuinely ran (partially) and died, so it
			// precedes the deterministic fault-model attempts. Without
			// failures this loop is empty and the stream matches in-process
			// execution exactly.
			attempt := 0
			for _, fa := range st.failed {
				attempt++
				tr.Emit(Span{
					Job: job.Name, Phase: PhaseMap, Task: t, Attempt: attempt,
					Failed: true, Start: st.startOff, Worker: fa.Worker,
				})
			}
			for a := 0; a < plan.attempts; a++ {
				s := Span{
					Job: job.Name, Phase: PhaseMap, Task: t, Attempt: attempt + a + 1,
					Failed:    a < plan.attempts-1,
					Start:     st.startOff,
					Simulated: time.Duration(float64(base) * plan.attemptFactor(a)),
					Records:   st.counters.In, Out: st.counters.Out,
					Worker: st.worker,
				}
				if a == plan.attempts-1 {
					s.Wall = st.mapDone - st.startOff
				}
				tr.Emit(s)
			}
			if tctx != nil {
				emitRemoteChildren(tr, *tctx, job.Name, PhaseMap, t,
					attempt+plan.attempts, st.startOff, &st.attr, st.worker,
					startUnix, frozen)
			}
			if job.combines() {
				tr.Emit(Span{
					Job: job.Name, Phase: PhaseCombine, Task: t,
					Start: st.mapDone, Wall: st.combineDone - st.mapDone,
					Records: st.counters.CombineIn, Out: st.counters.CombineOut,
					Worker: st.worker,
				})
			}
			tr.Emit(Span{
				Job: job.Name, Phase: PhaseShuffleSend, Task: t,
				Start: st.combineDone, Wall: st.sendDone - st.combineDone,
				Records: sent, Bytes: st.shuffleBytes,
				Worker: st.worker,
			})
		}
	}
	met.SimulatedMap = makespan(mapDurations, c.Slots())
	if logDebug {
		slog.Debug("mapreduce map phase done", "job", job.Name, "backend", exec.Name(),
			"tasks", met.MapTasks, "attempts", met.MapAttempts,
			"records_in", met.MapInputRecords, "records_out", met.MapOutputRecords,
			"simulated", met.SimulatedMap, "wall", elapsed())
	}

	// ---- Shuffle fetch + reduce phase (one worker round-trip per reducer) ----
	outputs := make([][]O, numReducers)
	redCounters := make([]TaskCounters, numReducers)
	redCustom := make([]map[string]*Histogram, numReducers)
	redPerKey := make([]map[string]KeyStats, numReducers)
	redWorker := make([]string, numReducers)
	redFailed := make([][]TaskAttempt, numReducers)
	var redAttr []taskAttribution
	if tctx != nil {
		redAttr = make([]taskAttribution, numReducers)
	}
	reducerErrs := make([]error, numReducers)
	shuffleRetries := make([]int64, numReducers)
	var recvStart, recvDur, redStart, redDur []time.Duration
	var recvBytes []int64
	if tr != nil {
		recvStart = make([]time.Duration, numReducers)
		recvDur = make([]time.Duration, numReducers)
		redStart = make([]time.Duration, numReducers)
		redDur = make([]time.Duration, numReducers)
		recvBytes = make([]int64, numReducers)
	}

	// Routed fallback for direct-shuffle reducers whose peer-held buckets
	// were lost (worker crash, missing receiver, peer receive timeout): the
	// coordinator rebuilds the reducer's bucket column and runs the reduce
	// routed, on any worker. Map re-execution is deterministic — the same
	// split, seed and task id produce byte-identical buckets — and memoized
	// under replayMu so several lost reducers share one replay per map task.
	var replayMu sync.Mutex
	replayed := make(map[int][][]byte)
	replayBuckets := func(t int) ([][]byte, error) {
		replayMu.Lock()
		defer replayMu.Unlock()
		if b, ok := replayed[t]; ok {
			return b, nil
		}
		splitPayload, err := encodeSlice(splits[t])
		if err != nil {
			return nil, err
		}
		res, err := exec.Execute(&TaskSpec{
			Job: job.Name, Maker: job.Maker, Config: job.Config,
			Phase: "map", Task: t, Seed: job.Seed,
			NumReducers: numReducers, NumMapTasks: len(splits),
			Split: splitPayload, Frozen: frozen,
		})
		if err != nil {
			return nil, err
		}
		replayed[t] = res.Buckets
		return res.Buckets, nil
	}
	directFallback := func(r int, spec *TaskSpec, lost *ShuffleLostError) (*TaskResult, error) {
		slog.Warn("mapreduce: direct shuffle lost, replaying buckets over the routed path",
			"job", job.Name, "reducer", r, "worker", lost.Worker, "reason", lost.Reason)
		payloads := make([][]byte, len(states))
		for t := range states {
			if bks := states[t].payloads; r < len(bks) && len(bks[r]) > 0 {
				payloads[t] = bks[r] // retained by the map phase, never left the coordinator
				continue
			}
			bks, err := replayBuckets(t)
			if err != nil {
				return nil, fmt.Errorf("replaying buckets of map task %d: %w", t, err)
			}
			if r < len(bks) {
				payloads[t] = bks[r]
			}
		}
		routed := *spec
		routed.Shuffle = nil
		routed.Buckets = payloads
		res, err := exec.Execute(&routed)
		if err != nil {
			return nil, err
		}
		// The lost direct attempt ran (at least partially) on a real worker
		// and died, so it precedes the successful routed attempt — the same
		// ordering crash recovery uses for re-executed tasks.
		res.FailedAttempts = append([]TaskAttempt{{Worker: lost.Worker, Err: lost.Reason}}, res.FailedAttempts...)
		return res, nil
	}

	runParallel(numReducers, c.workers(), func(r int) {
		if tr != nil {
			recvStart[r] = elapsed()
		}
		spec := &TaskSpec{
			Job: job.Name, Maker: job.Maker, Config: job.Config,
			Phase: "reduce", Task: r, Seed: job.Seed,
			NumReducers: numReducers, NumMapTasks: len(splits),
			CollectKeys: perKey, Frozen: frozen,
		}
		stampSpec(spec, PhaseReduce, r)
		var res *TaskResult
		var err error
		switch {
		case plan != nil:
			// Direct path: the reducer's worker already holds the buckets its
			// peers pushed. Ship only the stragglers the map phase had to
			// retain (a send to a dead endpoint keeps the payload on the
			// coordinator) and pin the reduce to the worker the plan named.
			spec.Shuffle = plan
			spec.Buckets = make([][]byte, len(states))
			for t := range states {
				if bks := states[t].payloads; r < len(bks) {
					spec.Buckets[t] = bks[r]
				}
			}
			res, err = ds.ExecuteOn(plan.Workers[r], spec)
			var lost *ShuffleLostError
			if err != nil && errors.As(err, &lost) {
				res, err = directFallback(r, spec, lost)
			}
			if tr != nil {
				// Same approximate sizes as the in-process engine, so recv
				// spans agree across backends.
				for t := range states {
					recvBytes[r] += states[t].counters.BucketSizes[r]
				}
			}
		case transport != nil:
			payloads, retries, rerr := receiveRetrying(transport, r, len(splits), c.ShuffleRetry, executorAlive(exec))
			shuffleRetries[r] = retries
			if rerr != nil {
				reducerErrs[r] = fmt.Errorf("reducer %d: %w", r, rerr)
				return
			}
			if tr != nil {
				for _, p := range payloads {
					recvBytes[r] += int64(len(p))
				}
				recvDur[r] = elapsed() - recvStart[r]
				redStart[r] = elapsed()
			}
			spec.Buckets = payloads
			res, err = exec.Execute(spec)
		default:
			payloads := make([][]byte, len(states))
			for t := range states {
				payloads[t] = states[t].payloads[r]
				if tr != nil {
					recvBytes[r] += states[t].counters.BucketSizes[r]
				}
			}
			if tr != nil {
				recvDur[r] = elapsed() - recvStart[r]
				redStart[r] = elapsed()
			}
			spec.Buckets = payloads
			res, err = exec.Execute(spec)
		}
		if err != nil {
			reducerErrs[r] = fmt.Errorf("reduce task %d on %s executor: %w", r, exec.Name(), err)
			return
		}
		if tctx != nil {
			redAttr[r] = attribution(res)
		}
		if plan != nil && tr != nil {
			// The receive happened inside the worker's task execution: split
			// the round-trip into the recv wall the worker measured and the
			// remainder as reduce work. Zero under a frozen clock, like every
			// other worker-side wall reading.
			recvDur[r] = res.Counters.RecvWall
			redStart[r] = recvStart[r] + recvDur[r]
		}
		out, err := DecodeTaskOutput[O](res.Output)
		if err != nil {
			reducerErrs[r] = fmt.Errorf("reducer %d: %w", r, err)
			return
		}
		outputs[r] = out
		redCounters[r] = res.Counters
		redCustom[r] = res.Custom
		redPerKey[r] = res.PerKey
		redWorker[r] = res.Worker
		redFailed[r] = res.FailedAttempts
		if tr != nil {
			redDur[r] = elapsed() - redStart[r]
		}
	})
	for _, err := range reducerErrs {
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
	}
	for r := 0; r < numReducers; r++ {
		met.ShuffleRecords += redCounters[r].In
		met.ShuffleRetries += shuffleRetries[r]
		if tr != nil {
			s := Span{
				Job: job.Name, Phase: PhaseShuffleRecv, Task: r,
				Start: recvStart[r], Wall: recvDur[r],
				Simulated: time.Duration(recvBytes[r]) * c.Cost.ShufflePerByte,
				Records:   redCounters[r].In, Bytes: recvBytes[r],
			}
			if plan != nil {
				// Direct mode: the receive ran on a worker, not here.
				s.Worker = redWorker[r]
			}
			tr.Emit(s)
		}
	}
	met.SimulatedShuffle = time.Duration(met.ShuffleBytes) * c.Cost.ShufflePerByte
	if logDebug {
		slog.Debug("mapreduce shuffle done", "job", job.Name, "backend", exec.Name(),
			"records", met.ShuffleRecords, "bytes", met.ShuffleBytes, "direct", plan != nil,
			"simulated", met.SimulatedShuffle, "wall", elapsed())
	}

	reduceDurations := make([]time.Duration, numReducers)
	var final []O
	for r := 0; r < numReducers; r++ {
		met.ReduceInputGroups += redCounters[r].Groups
		met.ReduceInputRecs += redCounters[r].In
		met.OutputRecords += int64(len(outputs[r]))
		met.mergeCustom(redCustom[r])
		if perKey {
			if met.PerKey == nil {
				met.PerKey = make(map[string]KeyStats, len(redPerKey[r]))
			}
			for key, ks := range redPerKey[r] {
				acc := met.PerKey[key]
				acc.Records += ks.Records
				acc.Output += ks.Output
				met.PerKey[key] = acc
			}
		}
		base := c.Cost.TaskOverhead + time.Duration(redCounters[r].In)*c.Cost.ReducePerRecord
		plan, err := c.Faults.plan("reduce", r)
		if err != nil {
			return nil, fmt.Errorf("job %q: %w", job.Name, err)
		}
		met.ReduceAttempts += int64(plan.attempts + len(redFailed[r]))
		reduceDurations[r] = time.Duration(float64(base) * plan.factor)
		met.ReduceTaskNanos.Observe(int64(reduceDurations[r]))
		if tr != nil {
			attempt := 0
			for _, fa := range redFailed[r] {
				attempt++
				tr.Emit(Span{
					Job: job.Name, Phase: PhaseReduce, Task: r, Attempt: attempt,
					Failed: true, Start: redStart[r], Worker: fa.Worker,
				})
			}
			for a := 0; a < plan.attempts; a++ {
				s := Span{
					Job: job.Name, Phase: PhaseReduce, Task: r, Attempt: attempt + a + 1,
					Failed:    a < plan.attempts-1,
					Start:     redStart[r],
					Simulated: time.Duration(float64(base) * plan.attemptFactor(a)),
					Records:   redCounters[r].In,
					Groups:    redCounters[r].Groups,
					Out:       int64(len(outputs[r])),
					Worker:    redWorker[r],
				}
				if a == plan.attempts-1 {
					s.Wall = redDur[r]
				}
				tr.Emit(s)
			}
			if tctx != nil {
				emitRemoteChildren(tr, *tctx, job.Name, PhaseReduce, r,
					attempt+plan.attempts, redStart[r], &redAttr[r], redWorker[r],
					startUnix, frozen)
			}
		}
		final = append(final, outputs[r]...)
	}
	met.SimulatedReduce = makespan(reduceDurations, c.Slots())
	met.WallTime = elapsed()
	if tr != nil {
		tr.Emit(Span{
			Job: job.Name, Phase: PhaseJob,
			Wall: met.WallTime, Simulated: met.SimulatedTotal(),
			Records: met.MapInputRecords, Out: met.OutputRecords,
			Groups: met.ReduceInputGroups, Bytes: met.ShuffleBytes,
		})
	}
	if logDebug {
		slog.Debug("mapreduce job done", "job", job.Name, "backend", exec.Name(),
			"output_records", met.OutputRecords, "groups", met.ReduceInputGroups,
			"attempts", met.MapAttempts+met.ReduceAttempts,
			"simulated", met.SimulatedTotal(), "wall", met.WallTime)
	}
	return &Result[O]{Output: final, Metrics: *met}, nil
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

func attribution(res *TaskResult) taskAttribution {
	return taskAttribution{
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
