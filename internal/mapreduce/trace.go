package mapreduce

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
)

// Span phase names, in execution order. Every Run emits, per map task, one
// PhaseMap span per attempt (so the number of map spans equals
// Metrics.MapAttempts), then an optional PhaseCombine span and a
// PhaseShuffleSend span; per reducer, a PhaseShuffleRecv span and one
// PhaseReduce span per attempt; and finally a single PhaseJob span for the
// whole run.
const (
	PhaseMap         = "map"
	PhaseCombine     = "combine"
	PhaseShuffleSend = "shuffle-send"
	PhaseShuffleRecv = "shuffle-recv"
	PhaseReduce      = "reduce"
	PhaseJob         = "job"
)

// Child phases of a remote task attempt, emitted only when the cluster has a
// TraceContext: the attempt span decomposes into the coordinator-measured
// queue wait and wire time plus the worker's own measurements, shipped back
// inside the TaskResult (decode, exec, and push or recv depending on the
// attempt's shuffle role).
const (
	// PhaseQueue is the time a task spent in the pool's dispatch queue
	// before a worker slot picked it up (coordinator clock).
	PhaseQueue = "queue"
	// PhaseWire is the round-trip time not accounted for by any
	// worker-side span: frame encode, network transfer both ways, and
	// result decode. Derived as (recv − send) − Σ worker spans, so it
	// needs no clock alignment.
	PhaseWire = "wire"
	// PhaseDecode is the worker's task-frame decode time.
	PhaseDecode = "decode"
	// PhaseExec is the worker's task core execution time.
	PhaseExec = "exec"
	// PhasePush is the worker's direct-shuffle bucket delivery time (map
	// attempts running under a ShufflePlan).
	PhasePush = "push"
	// PhaseRecv is the worker's wait for peer-delivered shuffle buckets
	// (reduce attempts running under a ShufflePlan).
	PhaseRecv = "recv"
)

// Span is one traced unit of engine work: a task attempt, a per-task combine
// or shuffle leg, or the whole job. Wall durations are measured on the
// machine running the job; Simulated durations come from the cluster's cost
// model, so a span file carries both the real execution profile and the
// virtual cluster's view (the paper's per-phase breakdown).
type Span struct {
	// Job is the job name the span belongs to.
	Job string `json:"job"`
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// Task is the map-task or reduce-task index (0 for PhaseJob).
	Task int `json:"task"`
	// Attempt is the 1-based attempt number for map/reduce spans; a task
	// has attempts beyond the first only when earlier ones died on a worker.
	Attempt int `json:"attempt,omitempty"`
	// Failed marks an attempt that died on a worker (a crash, an expired
	// lease, a lost shuffle); the task ran again elsewhere, so a Failed
	// span is always followed by another attempt. In-process execution
	// emits none.
	Failed bool `json:"failed,omitempty"`
	// Start is the span's wall-clock start, as an offset from the start of
	// Run (only meaningful relative to other spans of the same run).
	Start time.Duration `json:"start_ns"`
	// Wall is the measured duration. Of a task's attempts only the final
	// (successful) one carries it.
	Wall time.Duration `json:"wall_ns,omitempty"`
	// Simulated is the virtual-clock charge for this span. Failed attempts
	// carry none: the virtual clock charges a task once.
	Simulated time.Duration `json:"sim_ns,omitempty"`
	// Records is the number of input records the span consumed.
	Records int64 `json:"records,omitempty"`
	// Out is the number of records the span produced.
	Out int64 `json:"out,omitempty"`
	// Groups is the number of distinct keys a reduce span processed.
	Groups int64 `json:"groups,omitempty"`
	// Bytes is the byte volume a shuffle span moved (approximated from the
	// in-memory pairs; worker push/recv child spans carry wire bytes).
	Bytes int64 `json:"bytes,omitempty"`
	// Worker identifies the worker that ran the attempt when the cluster
	// executes on a worker pool (subprocess or tcp backend); empty for
	// in-process execution. Comparisons of span files across backends should
	// normalize this field: worker assignment races the pool's scheduling, so
	// it is the one deliberately nondeterministic span field.
	Worker string `json:"worker,omitempty"`
	// Trace is the distributed trace id the span belongs to. Empty unless
	// the emitting cluster carried a TraceContext (or the span producer —
	// the serve daemon, the CLI — stamped one); spans from different
	// processes sharing a Trace merge into one tree in `strata trace`.
	Trace string `json:"trace,omitempty"`
	// Run identifies the run/pass within the trace — e.g. "r3" for the
	// third cluster run of a CLI process, or "b5.p0" for serve batch 5,
	// pass group 0 — so concurrent passes writing one span file do not
	// interleave ambiguously.
	Run string `json:"run,omitempty"`
	// ID is the span's identifier within the trace: a deterministic hash
	// of its identity (see SpanID), so coordinator and workers agree on
	// ids without coordination. Zero when the span is untraced.
	ID uint64 `json:"id,omitempty"`
	// Parent is the ID of the enclosing span; zero for trace roots and
	// untraced spans.
	Parent uint64 `json:"parent,omitempty"`
}

// TraceContext is the cross-process trace identity a Cluster propagates into
// every span of a run and into every TaskSpec shipped to a worker. Setting
// it (together with an enabled Tracer) turns on distributed tracing: each
// span gains Trace/Run/ID/Parent stamps, and remote task attempts decompose
// into queue/wire/decode/exec/push/recv child spans.
type TraceContext struct {
	// Trace is the trace id, typically a random hex string minted by
	// whatever admitted the request (the serve daemon, the CLI).
	Trace string
	// Run names this cluster run within the trace (satisfies the
	// one-span-file-many-passes disambiguation: every span of the run
	// carries it).
	Run string
	// Parent is the span id the run's PhaseJob spans hang under — e.g.
	// the serve daemon's pass span — or zero for a root run.
	Parent uint64
}

// FNV-64a parameters, written out so SpanID needs no hash/fnv allocation.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// SpanID derives a deterministic span id from the span's identity parts
// (trace id, run, job, phase, task, attempt, ...). It is an FNV-64a hash
// with a separator fold between parts, never returns zero (zero means
// "untraced"/"root"), and is the shared convention that lets workers, the
// coordinator, and the serve daemon agree on parent links without passing
// ids over the wire for every span.
func SpanID(parts ...string) uint64 {
	h := uint64(fnvOffset64)
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			h ^= uint64(p[i])
			h *= fnvPrime64
		}
		h ^= 0xff // separator: ("ab","c") must differ from ("a","bc")
		h *= fnvPrime64
	}
	if h == 0 {
		h = 1
	}
	return h
}

// attemptSpanID is the id of a task-attempt span (or the job span, with
// phase PhaseJob and task/attempt zero) under the given context.
func attemptSpanID(ctx TraceContext, job, phase string, task, attempt int) uint64 {
	return SpanID(ctx.Trace, ctx.Run, job, phase, strconv.Itoa(task), strconv.Itoa(attempt))
}

// childSpanID is the id of a sub-attempt child span (queue/wire/decode/...),
// distinguished from the attempt span by the trailing phase part.
func childSpanID(ctx TraceContext, job, phase string, task, attempt int, sub string) uint64 {
	return SpanID(ctx.Trace, ctx.Run, job, phase, strconv.Itoa(task), strconv.Itoa(attempt), sub)
}

// spanStamper wraps the run's tracer when the cluster has a TraceContext,
// stamping every span that passes through with the trace identity: Trace and
// Run from the context, ID from the SpanID convention, and Parent linking
// task-level spans under the job span and the job span under ctx.Parent.
// Spans that arrive with an explicit ID/Parent (the remote child spans) are
// left alone apart from the Trace/Run stamps.
type spanStamper struct {
	ctx   TraceContext
	inner Tracer
}

// stampTracer wraps inner so every emitted span carries ctx's identity.
func stampTracer(ctx TraceContext, inner Tracer) Tracer {
	return &spanStamper{ctx: ctx, inner: inner}
}

// Enabled reports true: the engine only wraps an enabled tracer.
func (t *spanStamper) Enabled() bool { return true }

// Emit stamps and forwards the span.
func (t *spanStamper) Emit(s Span) {
	if s.Trace == "" {
		s.Trace = t.ctx.Trace
	}
	if s.Run == "" {
		s.Run = t.ctx.Run
	}
	if s.ID == 0 {
		s.ID = SpanID(s.Trace, s.Run, s.Job, s.Phase, strconv.Itoa(s.Task), strconv.Itoa(s.Attempt))
	}
	if s.Parent == 0 {
		if s.Phase == PhaseJob {
			s.Parent = t.ctx.Parent
		} else {
			// Task-level spans hang under the run's job span.
			s.Parent = SpanID(s.Trace, s.Run, s.Job, PhaseJob, "0", "0")
		}
	}
	t.inner.Emit(s)
}

// JobStarted forwards the announcement when the wrapped tracer observes jobs.
func (t *spanStamper) JobStarted(job string, mapTasks, reduceTasks int) {
	if jo, ok := t.inner.(JobObserver); ok {
		jo.JobStarted(job, mapTasks, reduceTasks)
	}
}

// Tracer receives spans from the engine. Implementations must be safe for
// concurrent Emit calls; the engine currently emits from its serial
// accounting sections, in deterministic order, but that is not part of the
// contract. A nil Tracer on the Cluster — or one whose Enabled returns false
// — keeps the hot path free of all timing and span work.
type Tracer interface {
	// Enabled reports whether spans are wanted; the engine checks it once
	// per Run and skips all span assembly (including wall-clock reads) when
	// it is false.
	Enabled() bool
	// Emit delivers one finished span.
	Emit(Span)
}

// JobObserver is an optional extension of Tracer. When the cluster's enabled
// tracer implements it, the engine announces each run *before* any task
// executes, carrying the per-phase task totals the span stream alone cannot
// provide (spans only exist for finished work). Live progress consumers —
// audit.Tracker behind the CLI's /progress endpoint — need the totals to
// render "done/total" meaningfully from the first moment of a run.
type JobObserver interface {
	// JobStarted reports a run about to execute: its name and how many map
	// and reduce tasks it will schedule.
	JobStarted(job string, mapTasks, reduceTasks int)
}

// TeeTracer fans every span out to several tracers — e.g. a JSONLTracer
// writing the span file and a progress tracker feeding /progress. It is
// enabled when any member is enabled, and forwards only to the enabled
// members; JobStarted reaches every enabled member that implements
// JobObserver.
type TeeTracer struct {
	tracers []Tracer
}

// NewTeeTracer combines the given tracers; nil entries are dropped.
func NewTeeTracer(tracers ...Tracer) *TeeTracer {
	t := &TeeTracer{}
	for _, tr := range tracers {
		if tr != nil {
			t.tracers = append(t.tracers, tr)
		}
	}
	return t
}

// Enabled reports whether any member wants spans.
func (t *TeeTracer) Enabled() bool {
	for _, tr := range t.tracers {
		if tr.Enabled() {
			return true
		}
	}
	return false
}

// Emit forwards the span to every enabled member.
func (t *TeeTracer) Emit(s Span) {
	for _, tr := range t.tracers {
		if tr.Enabled() {
			tr.Emit(s)
		}
	}
}

// JobStarted forwards the announcement to every enabled member that
// implements JobObserver.
func (t *TeeTracer) JobStarted(job string, mapTasks, reduceTasks int) {
	for _, tr := range t.tracers {
		if jo, ok := tr.(JobObserver); ok && tr.Enabled() {
			jo.JobStarted(job, mapTasks, reduceTasks)
		}
	}
}

// MemTracer collects spans in memory, for tests and in-process reporting.
type MemTracer struct {
	mu    sync.Mutex
	spans []Span
}

// NewMemTracer returns an empty in-memory tracer.
func NewMemTracer() *MemTracer { return &MemTracer{} }

// Enabled reports true.
func (t *MemTracer) Enabled() bool { return true }

// Emit appends the span.
func (t *MemTracer) Emit(s Span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// Spans returns a copy of everything emitted so far.
func (t *MemTracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Reset discards all collected spans.
func (t *MemTracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	t.mu.Unlock()
}

// JSONLTracer writes one JSON object per span to an io.Writer — the span
// file format `strata trace` reads back. Writes are buffered; call Close (or
// Flush) before reading the file.
type JSONLTracer struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewJSONLTracer returns a tracer writing JSON lines to w.
func NewJSONLTracer(w io.Writer) *JSONLTracer {
	bw := bufio.NewWriter(w)
	return &JSONLTracer{bw: bw, enc: json.NewEncoder(bw)}
}

// Enabled reports true.
func (t *JSONLTracer) Enabled() bool { return true }

// Emit encodes the span as one JSON line. The first encoding error sticks
// and is reported by Close.
func (t *JSONLTracer) Emit(s Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = t.enc.Encode(s)
}

// Flush forces buffered spans to the underlying writer.
func (t *JSONLTracer) Flush() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return t.err
	}
	return t.bw.Flush()
}

// Close flushes and returns the first error seen. It does not close the
// underlying writer.
func (t *JSONLTracer) Close() error {
	if err := t.Flush(); err != nil {
		return fmt.Errorf("mapreduce: writing span file: %w", err)
	}
	return nil
}

// ReadSpans parses a JSON-lines span file produced by JSONLTracer.
func ReadSpans(r io.Reader) ([]Span, error) {
	var spans []Span
	dec := json.NewDecoder(r)
	for {
		var s Span
		if err := dec.Decode(&s); err != nil {
			if err == io.EOF {
				return spans, nil
			}
			return nil, fmt.Errorf("mapreduce: span file line %d: %w", len(spans)+1, err)
		}
		spans = append(spans, s)
	}
}
