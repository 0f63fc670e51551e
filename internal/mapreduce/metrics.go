package mapreduce

import (
	"fmt"
	"time"
)

// Metrics reports what a job did. Record and byte counters are measured;
// the *Simulated* durations come from the cluster's cost model and virtual
// scheduler. Apart from WallTime — and the wall-clock spans an enabled
// Tracer sees — every field is deterministic for a given job, seed and
// cluster, so metrics can be compared across runs and machines.
type Metrics struct {
	// Job is the name of the job that produced these metrics.
	Job string

	MapTasks          int
	MapInputRecords   int64
	MapOutputRecords  int64
	CombineInputRecs  int64
	CombineOutputRecs int64
	ShuffleRecords    int64
	ShuffleBytes      int64
	ReduceTasks       int
	ReduceInputGroups int64
	ReduceInputRecs   int64
	OutputRecords     int64

	// MapAttempts and ReduceAttempts count task attempts: one per task plus
	// every attempt that died on a worker first (a crash, an expired lease,
	// a lost shuffle). When nothing died they equal MapTasks and
	// ReduceTasks — always, for in-process execution.
	MapAttempts    int64
	ReduceAttempts int64

	// SimulatedMap includes per-task map and combine work scheduled over
	// the cluster's slots; SimulatedShuffle models the network transfer;
	// SimulatedReduce the reduce wave.
	SimulatedMap     time.Duration
	SimulatedShuffle time.Duration
	SimulatedReduce  time.Duration

	// WallTime is the real elapsed time of the in-process run.
	WallTime time.Duration

	// MapTaskNanos and ReduceTaskNanos are histograms of the simulated
	// per-task durations (in nanoseconds) — the per-phase latency
	// distributions behind SimulatedMap and SimulatedReduce.
	MapTaskNanos    Histogram
	ReduceTaskNanos Histogram
	// BucketBytes is a histogram of per-bucket shuffle sizes, one
	// observation per (map task, reducer) pair, approximated from the
	// in-memory pairs on every backend.
	BucketBytes Histogram

	// Custom holds histograms observed by user code through
	// TaskContext.Observe — e.g. the stratified map stage's
	// "reservoir_size" distribution of intermediate-sample sizes. Nil when
	// nothing was observed.
	Custom map[string]*Histogram

	// PerKey counts reduce input and output per key (for the paper's jobs:
	// per stratum). Collected only when the cluster asks for it
	// (Cluster.PerKeyMetrics, or any enabled Tracer); nil otherwise, so
	// wide key spaces cost nothing by default.
	PerKey map[string]KeyStats
}

// KeyStats is the per-key (per-stratum) slice of a job's reduce phase.
type KeyStats struct {
	// Records is the number of shuffled values reduced under this key.
	Records int64 `json:"records"`
	// Output is the number of records the key's reduction emitted.
	Output int64 `json:"output"`
}

// SimulatedTotal is the job's virtual makespan.
func (m Metrics) SimulatedTotal() time.Duration {
	return m.SimulatedMap + m.SimulatedShuffle + m.SimulatedReduce
}

// Add accumulates another job's metrics (used when an algorithm runs a
// pipeline of jobs).
func (m *Metrics) Add(o Metrics) {
	m.MapTasks += o.MapTasks
	m.MapInputRecords += o.MapInputRecords
	m.MapOutputRecords += o.MapOutputRecords
	m.CombineInputRecs += o.CombineInputRecs
	m.CombineOutputRecs += o.CombineOutputRecs
	m.ShuffleRecords += o.ShuffleRecords
	m.ShuffleBytes += o.ShuffleBytes
	m.ReduceTasks += o.ReduceTasks
	m.ReduceInputGroups += o.ReduceInputGroups
	m.ReduceInputRecs += o.ReduceInputRecs
	m.OutputRecords += o.OutputRecords
	m.MapAttempts += o.MapAttempts
	m.ReduceAttempts += o.ReduceAttempts
	m.SimulatedMap += o.SimulatedMap
	m.SimulatedShuffle += o.SimulatedShuffle
	m.SimulatedReduce += o.SimulatedReduce
	m.WallTime += o.WallTime
	m.MapTaskNanos.Merge(o.MapTaskNanos)
	m.ReduceTaskNanos.Merge(o.ReduceTaskNanos)
	m.BucketBytes.Merge(o.BucketBytes)
	m.MergeCustom(o.Custom)
	m.mergePerKey(o.PerKey)
}

// MergeCustom folds observed histograms (one task's, another job's, an audit
// report's) into Metrics.Custom by name.
func (m *Metrics) MergeCustom(custom map[string]*Histogram) {
	for name, h := range custom {
		if m.Custom == nil {
			m.Custom = make(map[string]*Histogram, len(custom))
		}
		if mine := m.Custom[name]; mine != nil {
			mine.Merge(*h)
		} else {
			cp := *h
			m.Custom[name] = &cp
		}
	}
}

// mergePerKey accumulates per-key reduce counters. It adds rather than
// assigns: distinct keys can render to the same name under a lossy KeyString.
func (m *Metrics) mergePerKey(perKey map[string]KeyStats) {
	for key, ks := range perKey {
		if m.PerKey == nil {
			m.PerKey = make(map[string]KeyStats, len(perKey))
		}
		mine := m.PerKey[key]
		mine.Records += ks.Records
		mine.Output += ks.Output
		m.PerKey[key] = mine
	}
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%s: map %d recs -> %d pairs, shuffle %d recs/%dB, reduce %d groups -> %d out, sim %v",
		m.Job, m.MapInputRecords, m.MapOutputRecords, m.ShuffleRecords, m.ShuffleBytes,
		m.ReduceInputGroups, m.OutputRecords, m.SimulatedTotal().Round(time.Millisecond))
}

// approxSize estimates the wire size of a shuffled key or value whose type
// does not report its own (sizer).
func approxSize(v any) int {
	switch x := v.(type) {
	case string:
		return len(x)
	case int, int64, uint64, float64:
		return 8
	case int32, uint32, float32:
		return 4
	case bool, int8, uint8:
		return 1
	case int16, uint16:
		return 2
	default:
		return 8
	}
}

// sizer is a shuffled key or value type that reports its own wire size. The
// sampling jobs' values carry theirs in a field, so accounting one is a read.
type sizer interface{ ByteSize() int }

// sizeAt is the approximate wire size of *p. Asking through the pointer
// boxes nothing: the shuffle sizes every pair of every bucket.
func sizeAt[T any](p *T) int {
	if s, ok := any(p).(sizer); ok {
		return s.ByteSize()
	}
	return approxSize(*p)
}

// fixedSize reports the size sizeAt gives every value of T, or ok=false
// when the size is per-value (strings and sizers). It lets the shuffle
// account a whole bucket of fixed-size pairs with one multiplication.
func fixedSize[T any](p *T) (size int, ok bool) {
	switch any(p).(type) {
	case sizer, *string:
		return 0, false
	default:
		return approxSize(*p), true
	}
}

// bucketApproxSize estimates the wire size of one shuffle bucket. The
// fixed-vs-variable decision is made once per bucket from the first pair
// (all pairs share the concrete key and value types), and the result is
// byte-identical to summing sizeAt over every key and value.
func bucketApproxSize[K comparable, V any](pairs []Pair[K, V]) int64 {
	if len(pairs) == 0 {
		return 0
	}
	keySize, keyFixed := fixedSize(&pairs[0].Key)
	valSize, valFixed := fixedSize(&pairs[0].Value)
	if keyFixed && valFixed {
		return int64(keySize+valSize) * int64(len(pairs))
	}
	var total int64
	for i := range pairs {
		k, v := keySize, valSize
		if !keyFixed {
			k = sizeAt(&pairs[i].Key)
		}
		if !valFixed {
			v = sizeAt(&pairs[i].Value)
		}
		total += int64(k + v)
	}
	return total
}
