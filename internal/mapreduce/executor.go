package mapreduce

import (
	"errors"
	"fmt"
	"time"
)

// TaskSpec is one task attempt in backend-portable form: everything a worker
// process needs to reconstruct the job (Maker + Config), seed its RNGs
// identically to an in-process run (Seed, Task, Phase), and the input bytes.
// Payloads lead with a one-byte format byte (see wire.go).
type TaskSpec struct {
	// Job is the job name, used in task contexts and error messages.
	Job string
	// Maker names the job factory registered with RegisterJobMaker; Config
	// is its serialized argument. Together they make the job portable: a
	// worker that links the same registrations rebuilds map stage, reducer,
	// partitioner and key renderer from them.
	Maker  string
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
	// Buckets are the reduce task's shuffle payloads in map-task order. On
	// the direct-shuffle path an empty entry is a hole: the payload was (or
	// will be) delivered worker-to-worker and the reduce attempt receives it
	// from its peer instead of from this spec. A bucket payload is never
	// empty (encodeBucket of zero pairs still carries its format byte),
	// so emptiness is an unambiguous hole marker.
	Buckets [][]byte
	// NumMapTasks is the job's map-task count; reduce attempts on the direct
	// path use it to size their expected bucket set.
	NumMapTasks int
	// Shuffle, when non-nil, routes this job's shuffle buckets directly
	// between workers: a map attempt Sends each bucket to its reducer's
	// endpoint, and a reduce attempt Receives the holes of Buckets from
	// peers instead of unpacking them from the spec.
	Shuffle *ShufflePlan
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
	case s.NumMapTasks < 0 || s.NumMapTasks > maxSpecTasks:
		what = fmt.Sprintf("%d map tasks", s.NumMapTasks)
	case len(s.Buckets) > s.NumMapTasks:
		what = fmt.Sprintf("%d buckets for %d map tasks", len(s.Buckets), s.NumMapTasks)
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
	// bytes, routed or direct, so Metrics.ShuffleBytes stay byte-identical
	// to an in-process run; the wire bytes the worker edge actually carried
	// travel in TaskResult.DirectBytes.
	BucketSizes []int64
	// MapWall is the worker-measured duration of the map stage (zero under
	// a frozen clock).
	MapWall time.Duration
	// RecvWall is the time a direct-path reduce attempt spent waiting for
	// peer-delivered buckets (zero under a frozen clock, and on the routed
	// path where the coordinator measures the receive itself).
	RecvWall time.Duration
}

// TaskAttempt records one failed attempt of a task: the worker it was
// leased to and why it failed. These are genuine runtime failures (a worker
// crashed, its lease expired, the buckets it held were lost) — the only
// failed attempts there are — so they appear only when something actually
// went wrong.
type TaskAttempt struct {
	// Worker identifies the worker the attempt ran on.
	Worker string
	// Err describes the failure.
	Err string
}

// TaskResult is the outcome of one successfully executed task attempt.
type TaskResult struct {
	// Buckets are a map attempt's per-reducer shuffle payloads
	// (encodeBucket format), one per reducer. On the
	// direct-shuffle path an entry is nil when the worker delivered it
	// straight to its reducer's endpoint; payloads whose delivery failed
	// (dead endpoint) stay in place, so the coordinator retains them as the
	// routed fallback for exactly those buckets.
	Buckets [][]byte
	// DirectBytes counts the wire bytes (frame header + payload) a map
	// attempt shipped directly to reducer endpoints. It is executor-level
	// accounting — deliberately not folded into Metrics, which keep the
	// backend-independent approximate sizes so metrics stay byte-identical
	// across backends.
	DirectBytes int64
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
	// Spans are the worker-side measurements of this attempt (decode,
	// exec, push, recv — see the Phase* constants), present only when the
	// spec carried a trace context.
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
// coordinator. Workers emit, in deterministic order: decode and exec for
// every attempt, push after exec for map attempts running under a
// ShufflePlan, and recv between decode and exec for reduce attempts that
// waited on peer-delivered buckets.
type WorkerSpan struct {
	// Phase is PhaseDecode, PhaseExec, PhasePush or PhaseRecv.
	Phase string
	// Start is the worker's wall clock at span start in unix nanoseconds;
	// zero under a frozen coordinator clock. The coordinator aligns it to
	// its own timeline via the hello clock-offset estimate.
	Start int64
	// Dur is the measured duration (zero when frozen).
	Dur time.Duration
	// Bytes is the byte volume the span handled: frame payload bytes for
	// decode, wire bytes shipped for push, bucket bytes received for recv.
	Bytes int64
}

// Executor runs task attempts for the engine. The engine keeps all
// scheduling, metrics folding and span emission; an
// executor only answers "run this spec, give me the result", possibly on
// another process or machine. Execute must be safe for concurrent calls —
// the engine issues up to Cluster.workers() of them at once. Execute is
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

// ShufflePlan is the control-plane description of one job's direct
// worker-to-worker shuffle: for every reducer, the worker that will execute
// it and the shuffle-receiver endpoint its buckets must be sent to. The
// coordinator exchanges only this metadata (plus bucket sizes and completion
// acks); the bucket bytes themselves travel worker-to-worker.
type ShufflePlan struct {
	// Session namespaces this job run's buckets on every receiver, so
	// back-to-back jobs on one worker pool cannot mix payloads.
	Session string
	// Workers[r] is the id of the worker that hosts reducer r's buckets and
	// must execute its reduce attempt (shuffle affinity).
	Workers []string
	// Endpoints[r] is the shuffle-receiver address of Workers[r].
	Endpoints []string
	// TimeoutMs bounds how long a reduce attempt waits for peer-delivered
	// buckets before reporting a lost shuffle.
	TimeoutMs int64
}

// Timeout returns the receive deadline as a duration.
func (p *ShufflePlan) Timeout() time.Duration { return time.Duration(p.TimeoutMs) * time.Millisecond }

// DirectShuffler is implemented by executors whose workers can exchange
// shuffle buckets directly (the worker pool). The engine asks for a plan per
// job run; a nil plan means the executor cannot shuffle directly right now
// (no capable workers attached) and the coordinator-routed path is used
// instead.
type DirectShuffler interface {
	Executor
	// PlanShuffle assigns the job's reducers to shuffle-capable workers.
	PlanShuffle(job string, numReducers int) *ShufflePlan
	// ExecuteOn runs one attempt on the named worker (shuffle affinity).
	// Unlike Execute it never reassigns across workers: if the worker is
	// gone — or reports that its peer-delivered buckets never arrived — it
	// returns a *ShuffleLostError and the engine falls back to the routed
	// path, replaying buckets through the coordinator.
	ExecuteOn(worker string, spec *TaskSpec) (*TaskResult, error)
}

// ShuffleLostError reports that a direct-shuffle reduce attempt could not be
// completed on its planned worker: the worker died (taking its received
// buckets with it), its affinity queue was unreachable, or the expected
// peer buckets never arrived before the deadline. It is retryable — not on
// another worker, which would not hold the buckets either, but through the
// coordinator-routed fallback, which replays the buckets from (deterministic)
// map re-execution.
type ShuffleLostError struct {
	// Worker is the planned worker the attempt was lost on.
	Worker string
	// Reducer is the reduce task whose shuffle was lost.
	Reducer int
	// Reason describes what went wrong.
	Reason string
	// Attempted is true when the reduce attempt reached the worker and died
	// or failed there — a real failed attempt, counted and traced as one —
	// and false when the worker was already gone and nothing ran.
	Attempted bool
}

// Error renders the lost shuffle, naming the planned worker.
func (e *ShuffleLostError) Error() string {
	return fmt.Sprintf("mapreduce: reducer %d lost its direct shuffle on worker %s: %s",
		e.Reducer, e.Worker, e.Reason)
}

// ReceiveTimeoutError reports that a direct-shuffle reduce attempt gave up
// waiting for a peer-delivered bucket: the sending worker died, hung, or its
// map task was reassigned. Task is the first missing map task. The worker
// reports it to the coordinator as a lost shuffle.
type ReceiveTimeoutError struct {
	// Reducer is the waiting reduce task.
	Reducer int
	// Task is the lowest-numbered map task whose bucket never arrived.
	Task int
	// Timeout is the configured receive deadline that expired.
	Timeout time.Duration
}

// Error renders the timeout, naming both ends of the missing transfer.
func (e *ReceiveTimeoutError) Error() string {
	return fmt.Sprintf("mapreduce: reducer %d timed out waiting for task %d (after %v)",
		e.Reducer, e.Task, e.Timeout)
}

// InprocExecutor executes task specs in this process through the same
// registry path remote workers use: splits, buckets and outputs are encoded
// and decoded, only the process boundary is missing. It is how tests and
// benchmarks hold the serialized route byte-identical to closure execution
// (a nil Cluster.Executor) without spawning workers.
type InprocExecutor struct{}

// Name reports "inproc".
func (*InprocExecutor) Name() string { return "inproc" }

// Execute runs the spec through the job-maker registry in this process.
func (*InprocExecutor) Execute(spec *TaskSpec) (*TaskResult, error) {
	return ExecuteTask(spec)
}

// Close is a no-op.
func (*InprocExecutor) Close() error { return nil }
