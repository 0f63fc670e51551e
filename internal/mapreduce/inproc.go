package mapreduce

import (
	"bytes"
	"fmt"
	"sync"
	"time"
)

// Remote workers cannot receive Go closures, so a job travels as its Config:
// the serialized argument (the query, schema, options...) of the one builder
// every process that runs tasks links. The worker rebuilds the full Job from
// it and executes task specs through the same task cores (task.go) the
// in-process engine uses, so output stays byte-identical across backends.

// runnerCacheSize bounds the built jobs an executor keeps: a job's tasks
// arrive together, while a long-lived worker sees an unbounded stream of
// configs (ad-hoc query lists, each MR-CPS run's chosen IDs) never sent again.
const runnerCacheSize = 16

// builtJob is one built job and the spec fields that identify it.
type builtJob[S sized, K comparable, V any, O any] struct {
	name   string
	config []byte
	job    *Job[S, K, V, O]
}

// inproc is the Executor NewInproc returns.
type inproc[S sized, K comparable, V any, O any] struct {
	build func(config []byte) (*Job[S, K, V, O], error)

	mu sync.Mutex
	// cache holds the most recently used jobs, oldest first, so a worker
	// serving many tasks of one job compiles its predicates once, not per
	// attempt.
	cache []builtJob[S, K, V, O]
}

// NewInproc returns the executor that runs task specs in this process: it
// rebuilds each spec's job from its Config with build — which must do so
// deterministically, map stage, reducer, KeyString and Codecs included; Name
// and Seed come from the spec — and runs the task cores over the payloads
// its Codecs decode. A worker serves every spec through one such executor,
// and a Cluster whose Executor it is runs the serialized route in process:
// splits, buckets and outputs are encoded and decoded, only the process
// boundary is missing.
func NewInproc[S sized, K comparable, V any, O any](build func(config []byte) (*Job[S, K, V, O], error)) Executor {
	return &inproc[S, K, V, O]{build: build}
}

// Name reports "inproc".
func (*inproc[S, K, V, O]) Name() string { return "inproc" }

// Close is a no-op.
func (*inproc[S, K, V, O]) Close() error { return nil }

// Execute runs one task spec in this process.
func (e *inproc[S, K, V, O]) Execute(spec *TaskSpec) (*TaskResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	job, err := e.jobFor(spec)
	if err != nil {
		return nil, err
	}
	switch spec.Phase {
	case "map":
		return runMap(job, spec)
	case "reduce":
		return runReduce(job, spec)
	default:
		return nil, fmt.Errorf("mapreduce: task spec for job %q has unknown phase %q", spec.Job, spec.Phase)
	}
}

// jobFor returns the (possibly cached) job of the spec.
func (e *inproc[S, K, V, O]) jobFor(spec *TaskSpec) (*Job[S, K, V, O], error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i, b := range e.cache {
		if b.name == spec.Job && bytes.Equal(b.config, spec.Config) {
			copy(e.cache[i:], e.cache[i+1:])
			e.cache[len(e.cache)-1] = b
			return b.job, nil
		}
	}
	job, err := e.build(spec.Config)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: building job %q: %w", spec.Job, err)
	}
	// Fail before any task work, not when the first payload is encoded.
	if job.Codecs == nil {
		return nil, fmt.Errorf("mapreduce: job %q was built without codecs", spec.Job)
	}
	job.Name = spec.Job
	if len(e.cache) == runnerCacheSize {
		e.cache = e.cache[:copy(e.cache, e.cache[1:])]
	}
	// The spec's bytes belong to the frame they were decoded from.
	e.cache = append(e.cache, builtJob[S, K, V, O]{spec.Job, bytes.Clone(spec.Config), job})
	return job, nil
}

// taskClock returns a stage-boundary timer for worker-side execution: nil
// under a frozen coordinator clock (walls must stay zero for cross-backend
// span determinism), otherwise offsets from the task's own start.
func taskClock(spec *TaskSpec) func() time.Duration {
	if spec.Frozen {
		return nil
	}
	start := time.Now()
	return func() time.Duration { return time.Since(start) }
}

func runMap[S sized, K comparable, V any, O any](job *Job[S, K, V, O], spec *TaskSpec) (*TaskResult, error) {
	split, err := decodeValue(job.Codecs.Split, spec.Split)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: decoding split of map task %d: %w", spec.Task, err)
	}
	run := execMapTask(job, spec.Seed, split, spec.Task, spec.NumReducers, taskClock(spec))
	res := &TaskResult{
		Buckets: make([][]byte, len(run.buckets)),
		Counters: TaskCounters{
			In: run.in, Out: run.out,
			CombineIn: run.combineIn, CombineOut: run.combineOut,
			BucketSizes: make([]int64, len(run.buckets)),
			MapWall:     run.done,
		},
		Custom: run.custom,
	}
	for r, pairs := range run.buckets {
		res.Buckets[r] = encodeBucket(job.Codecs.Pair, pairs)
		res.Counters.BucketSizes[r] = bucketApproxSize(pairs)
	}
	return res, nil
}

func runReduce[S sized, K comparable, V any, O any](job *Job[S, K, V, O], spec *TaskSpec) (*TaskResult, error) {
	parts := make([][]Pair[K, V], len(spec.Buckets))
	for task, payload := range spec.Buckets {
		pairs, err := decodeBucket(job.Codecs.Pair, payload)
		if err != nil {
			// Payloads arrive in map-task order, so the index names the
			// originating map task — same diagnostics as the engine's own
			// shuffle decode.
			return nil, fmt.Errorf("mapreduce: reducer %d: bucket from map task %d: %w", spec.Task, task, err)
		}
		parts[task] = pairs
	}
	groups := groupPairs(parts)
	names := groups.sortByName(job.keyString)
	run := execReduceTask(job, spec.Seed, groups, names, spec.Task, spec.CollectKeys)
	return &TaskResult{
		Output: encodeValue(job.Codecs.Output, run.out),
		Counters: TaskCounters{
			In:     run.inRecs,
			Out:    int64(len(run.out)),
			Groups: int64(len(groups.keyOrder)),
		},
		Custom: run.custom,
		PerKey: run.perKey,
	}, nil
}
