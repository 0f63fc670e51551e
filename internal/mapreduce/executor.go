package mapreduce

import (
	"errors"
	"fmt"
	"time"
)

// TaskSpec is one task attempt in backend-portable form: everything a worker
// process needs to reconstruct the job (Config), seed its RNGs
// identically to an in-process run (Seed, Task, Phase), and the input bytes.
// Payloads lead with a one-byte format byte (see wire.go).
type TaskSpec struct {
	// Job is the job name, used in task contexts and error messages.
	Job string
	// Config is the job's serialized argument: the worker's builder
	// (NewInproc) rebuilds map stage, reducer, key renderer and codecs from
	// it.
	Config []byte
	// Phase is "map" or "reduce".
	Phase string
	// Task is the map-task or reduce-task index.
	Task int
	// Seed is the job seed; per-task and per-key seeds derive from it
	// exactly as in-process, which keeps output byte-identical.
	Seed int64
	// NumReducers is the job's reducer count (map tasks partition by it).
	NumReducers int
	// Split is the encoded input split of a map task (encodeValue format).
	Split []byte
	// Buckets are the reduce task's shuffle payloads in map-task order: the
	// reducer's column of the buckets the map results carried back to the
	// coordinator.
	Buckets [][]byte
	// CollectKeys asks a reduce attempt for per-key (per-stratum) counters.
	CollectKeys bool
	// Frozen tells the worker the coordinator runs under a FrozenClock: it
	// must report zero wall durations so traced runs stay byte-identical
	// across backends.
	Frozen bool
	// Trace, TraceRun and TraceParent propagate the coordinator's trace
	// context (Cluster.TraceContext) to the worker running this attempt:
	// the distributed trace id, the run/pass identifier, and the span id
	// of the attempt span the worker's measurements will be parented
	// under (best-effort: the spec is built before the pool knows which
	// real attempt it serves, so it names the first attempt). All
	// zero when tracing is off — workers then skip span collection
	// entirely.
	Trace       string
	TraceRun    string
	TraceParent uint64
}

// ErrInvalidSpec is the cause of every error Validate returns.
var ErrInvalidSpec = errors.New("invalid task spec")

// maxSpecTasks bounds the task counts a spec may claim. Task cores size
// slices by them, so a hostile count must not reach a make(); no frame
// relates a map spec's reducer count to its size, hence a fixed cap, far
// above any job this engine schedules.
const maxSpecTasks = 1 << 20

// Validate checks the shape of a spec that crossed a process boundary,
// before any task core indexes or allocates by its counts.
func (s *TaskSpec) Validate() error {
	var what string
	switch {
	case s.Task < 0:
		what = fmt.Sprintf("task index %d", s.Task)
	case s.NumReducers < 1 || s.NumReducers > maxSpecTasks:
		what = fmt.Sprintf("%d reducers", s.NumReducers)
	case len(s.Buckets) > maxSpecTasks:
		what = fmt.Sprintf("%d buckets", len(s.Buckets))
	default:
		return nil
	}
	return fmt.Errorf("mapreduce: %s task of job %q: %w: %s", s.Phase, s.Job, ErrInvalidSpec, what)
}

// TaskCounters are the measured counters of one executed task attempt.
type TaskCounters struct {
	// In, Out count task input and output records. For reduce attempts In
	// is the shuffled record count and Groups the distinct keys reduced.
	In, Out int64
	// CombineIn, CombineOut count the matches a map attempt folded before
	// the shuffle and the pairs it emitted for them (Mapper).
	CombineIn, CombineOut int64
	// Groups is the number of distinct keys a reduce attempt processed.
	Groups int64
	// BucketSizes are the approximate (bucketApproxSize) per-reducer sizes
	// of a map attempt's buckets — what the coordinator accounts as shuffle
	// bytes, so Metrics.ShuffleBytes stay byte-identical to an in-process
	// run.
	BucketSizes []int64
	// MapWall is the worker-measured duration of the map stage (zero under
	// a frozen clock).
	MapWall time.Duration
}

// TaskAttempt records one failed attempt of a task: the worker it was
// leased to and why it failed. These are genuine runtime failures (a worker
// crashed or its lease expired) — the only failed attempts there are — so
// they appear only when something actually went wrong.
type TaskAttempt struct {
	// Worker identifies the worker the attempt ran on.
	Worker string
	// Err describes the failure.
	Err string
}

// TaskResult is the outcome of one successfully executed task attempt.
type TaskResult struct {
	// Buckets are a map attempt's per-reducer shuffle payloads
	// (encodeBucket format), one per reducer, every one of them present: the
	// coordinator holds them until each reducer's spec carries its column.
	Buckets [][]byte
	// Output is a reduce attempt's encoded output record slice
	// (encodeValue format).
	Output []byte
	// Counters are the attempt's measured counters.
	Counters TaskCounters
	// Custom are the histograms user code observed via TaskContext.Observe.
	Custom map[string]*Histogram
	// PerKey are the reduce attempt's per-key counters when requested.
	PerKey map[string]KeyStats
	// Worker identifies the worker that produced this result.
	Worker string
	// FailedAttempts lists real attempts that died before this one
	// succeeded (crashes, lease expiries); the engine surfaces them as
	// failed spans and extra attempt counts.
	FailedAttempts []TaskAttempt
	// Spans are the worker-side measurements of this attempt (decode and
	// exec — see the Phase* constants), present only when the spec carried
	// a trace context.
	// The coordinator lifts them into child spans of the attempt span.
	Spans []WorkerSpan

	// The remaining fields are coordinator-local attribution, filled in by
	// the executor pool on the coordinator side and never wire-encoded: how
	// long the task waited in the dispatch queue, when its frame was sent
	// and its result received (coordinator clock, unix nanos), and the
	// worker's estimated clock offset from the hello handshake.
	QueueNanos       int64
	SentAtNanos      int64
	RecvAtNanos      int64
	ClockOffsetNanos int64
	ClockOffsetOK    bool
}

// WorkerSpan is one worker-side measurement of a task attempt, shipped back
// inside the TaskResult and lifted into proper child Spans by the
// coordinator. Workers emit decode, then exec, for every attempt.
type WorkerSpan struct {
	// Phase is PhaseDecode or PhaseExec.
	Phase string
	// Start is the worker's wall clock at span start in unix nanoseconds;
	// zero under a frozen coordinator clock. The coordinator aligns it to
	// its own timeline via the hello clock-offset estimate.
	Start int64
	// Dur is the measured duration (zero when frozen).
	Dur time.Duration
	// Bytes is the byte volume the span handled: frame payload bytes for
	// decode.
	Bytes int64
}

// Executor runs task attempts for the engine. The engine keeps all
// scheduling, metrics folding and span emission; an
// executor only answers "run this spec, give me the result", possibly on
// another process or machine. Execute must be safe for concurrent calls —
// the engine issues up to Cluster.Slaves of them at once. Execute is
// expected to retry transient worker failures internally (recording them in
// TaskResult.FailedAttempts) and return an error only when the task is
// undeliverable.
type Executor interface {
	// Name identifies the backend ("inproc", "subprocess", "tcp") in logs
	// and errors.
	Name() string
	// Execute runs one task attempt to completion.
	Execute(spec *TaskSpec) (*TaskResult, error)
	// Close drains and releases the executor's workers. The executor
	// outlives individual jobs; close it when the process is done.
	Close() error
}
