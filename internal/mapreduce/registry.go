package mapreduce

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Remote workers cannot receive Go closures, so a job travels as a (Maker,
// Config) pair: Maker names a factory registered — in every process that
// might run the job's tasks — with RegisterJobMaker, and Config is the
// factory's serialized argument (the query, schema, options...). The worker
// rebuilds the full Job from them and executes task specs through the same
// task cores (task.go) the in-process engine uses, so output stays
// byte-identical across backends.

// taskRunner is a type-erased portable job: the registry stores these so it
// can dispatch specs without knowing the job's type parameters.
type taskRunner interface {
	runTask(spec *TaskSpec) (*TaskResult, error)
}

// jobMaker is one registered factory: build rebuilds the job from its
// config; codecs reports the job's payload types (split, shuffle pair,
// output) that have no registered wire codec.
type jobMaker struct {
	build  func(name string, config []byte) (taskRunner, error)
	codecs func() error
}

// runnerCacheSize bounds the built runners a process keeps: a job's tasks
// arrive together, while a long-lived worker sees an unbounded stream of
// configs (ad-hoc query lists, each MR-CPS run's chosen IDs) never sent again.
const runnerCacheSize = 16

// cachedRunner is one built job and the spec fields that identify it.
type cachedRunner struct {
	maker, job string
	config     []byte
	runner     taskRunner
}

var registry = struct {
	sync.Mutex
	makers map[string]jobMaker
	// cache holds the most recently used runners, oldest first, so a worker
	// serving many tasks of one job compiles its predicates once, not per
	// attempt.
	cache []cachedRunner
}{
	makers: make(map[string]jobMaker),
}

// RegisterJobMaker registers a named job factory. Call it from an init
// function of the package that builds the job, so every binary linking that
// package — the coordinator and its workers alike — can reconstruct the job
// from its serialized config. It panics on duplicate names.
//
// The factory receives the TaskSpec's Config bytes and must deterministically
// rebuild the job: map stage, reducer and KeyString all included.
// Name and Seed are overridden from the spec, so the factory need not set
// them.
func RegisterJobMaker[S sized, K comparable, V any, O any](name string, maker func(config []byte) (*Job[S, K, V, O], error)) {
	registry.Lock()
	defer registry.Unlock()
	if _, dup := registry.makers[name]; dup {
		panic(fmt.Sprintf("mapreduce: RegisterJobMaker: duplicate maker %q", name))
	}
	registry.makers[name] = jobMaker{
		build: func(jobName string, config []byte) (taskRunner, error) {
			job, err := maker(config)
			if err != nil {
				return nil, fmt.Errorf("mapreduce: maker %q: %w", name, err)
			}
			job.Name = jobName
			return &jobRunner[S, K, V, O]{job: job}, nil
		},
		codecs: func() error {
			_, split := lookupCodec[Codec[S], S]()
			_, pair := lookupCodec[BucketCodec[K, V], Pair[K, V]]()
			_, out := lookupCodec[Codec[[]O], []O]()
			return errors.Join(split, pair, out)
		},
	}
}

// runnerFor returns the (possibly cached) runner for the spec's job.
func runnerFor(spec *TaskSpec) (taskRunner, error) {
	registry.Lock()
	defer registry.Unlock()
	for i, e := range registry.cache {
		if e.maker == spec.Maker && e.job == spec.Job && bytes.Equal(e.config, spec.Config) {
			copy(registry.cache[i:], registry.cache[i+1:])
			registry.cache[len(registry.cache)-1] = e
			return e.runner, nil
		}
	}
	mk, ok := registry.makers[spec.Maker]
	if !ok {
		return nil, fmt.Errorf("mapreduce: no job maker registered as %q (worker binary missing a registration?)", spec.Maker)
	}
	// Fail before any task work, not when the first payload is encoded.
	if err := mk.codecs(); err != nil {
		return nil, fmt.Errorf("mapreduce: maker %q: %w", spec.Maker, err)
	}
	r, err := mk.build(spec.Job, spec.Config)
	if err != nil {
		return nil, err
	}
	if len(registry.cache) == runnerCacheSize {
		registry.cache = registry.cache[:copy(registry.cache, registry.cache[1:])]
	}
	// The spec's bytes belong to the frame they were decoded from.
	registry.cache = append(registry.cache, cachedRunner{spec.Maker, spec.Job, bytes.Clone(spec.Config), r})
	return r, nil
}

// ExecuteTask runs one portable task spec in this process: the worker-side
// entry point (and the InprocExecutor's implementation).
func ExecuteTask(spec *TaskSpec) (*TaskResult, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	r, err := runnerFor(spec)
	if err != nil {
		return nil, err
	}
	return r.runTask(spec)
}

// jobRunner adapts a concrete Job to the type-erased taskRunner interface.
type jobRunner[S sized, K comparable, V any, O any] struct {
	job *Job[S, K, V, O]
}

func (jr *jobRunner[S, K, V, O]) runTask(spec *TaskSpec) (*TaskResult, error) {
	switch spec.Phase {
	case "map":
		return jr.runMap(spec)
	case "reduce":
		return jr.runReduce(spec)
	default:
		return nil, fmt.Errorf("mapreduce: task spec for job %q has unknown phase %q", spec.Job, spec.Phase)
	}
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

func (jr *jobRunner[S, K, V, O]) runMap(spec *TaskSpec) (*TaskResult, error) {
	split, err := decodeValue[S](spec.Split)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: decoding split of map task %d: %w", spec.Task, err)
	}
	run := execMapTask(jr.job, spec.Seed, split, spec.Task, spec.NumReducers, taskClock(spec))
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
	for r := range run.buckets {
		payload, err := encodeBucket(run.buckets[r])
		if err != nil {
			return nil, err
		}
		res.Buckets[r] = payload
		res.Counters.BucketSizes[r] = bucketApproxSize(run.buckets[r])
	}
	return res, nil
}

func (jr *jobRunner[S, K, V, O]) runReduce(spec *TaskSpec) (*TaskResult, error) {
	parts := make([][]Pair[K, V], len(spec.Buckets))
	for task, payload := range spec.Buckets {
		pairs, err := decodeBucket[K, V](payload)
		if err != nil {
			// Payloads arrive in map-task order, so the index names the
			// originating map task — same diagnostics as the engine's own
			// shuffle decode.
			return nil, fmt.Errorf("mapreduce: reducer %d: bucket from map task %d: %w", spec.Task, task, err)
		}
		parts[task] = pairs
	}
	groups := groupPairs(parts)
	names := groups.sortByName(jr.job.keyString)
	run := execReduceTask(jr.job, spec.Seed, groups, names, spec.Task, spec.CollectKeys)
	payload, err := encodeValue(run.out)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: encoding reduce %d output: %w", spec.Task, err)
	}
	return &TaskResult{
		Output: payload,
		Counters: TaskCounters{
			In:     run.inRecs,
			Out:    int64(len(run.out)),
			Groups: int64(len(groups.keyOrder)),
		},
		Custom: run.custom,
		PerKey: run.perKey,
	}, nil
}

// DecodeTaskOutput decodes a reduce attempt's Output payload back into
// records. The coordinator-side engine uses it; it is exported for tests and
// tools that inspect raw results.
func DecodeTaskOutput[O any](payload []byte) ([]O, error) {
	out, err := decodeValue[[]O](payload)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: decoding reduce output: %w", err)
	}
	return out, nil
}
