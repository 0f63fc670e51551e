package mapreduce

import (
	"fmt"
	"time"
)

// Cluster models the distributed system the job runs on: a number of slave
// machines, each running one task at a time, and a cost model for the
// virtual clock.
// The master is implicit. It corresponds to the paper's EC2 deployment of
// one master plus 1–10 slaves.
type Cluster struct {
	// Slaves is the number of worker machines (≥ 1): the engine runs up to
	// Slaves tasks at once, and a job has one reducer per slave.
	Slaves int
	// Cost converts measured task counters into simulated durations.
	Cost CostModel
	// Executor, when non-nil, runs task attempts on an execution backend
	// instead of in-process goroutines: a worker pool (child processes or
	// whoever dialed in) or any other Executor implementation — every task then
	// travels as a serialized TaskSpec, even with NewInproc's executor. A
	// nil Executor keeps tasks as in-process closures that never encode.
	// Executors require jobs that carry their codecs (Job.Codecs set); Run
	// refuses any other.
	Executor Executor
	// Tracer, when non-nil, receives one Span per task attempt, combine,
	// shuffle leg and job (see the Phase* constants). A nil tracer keeps the
	// engine's hot path free of span assembly and wall-clock reads.
	Tracer Tracer
	// PerKeyMetrics asks the engine to fill Metrics.PerKey with per-key
	// (per-stratum) reduce counters. It is implied by a non-nil Tracer;
	// off by default because a wide key space would make Metrics large.
	PerKeyMetrics bool
	// TraceContext, when non-nil and combined with a non-nil Tracer,
	// threads a cross-process trace identity through the run: every span
	// is stamped with Trace/Run/ID/Parent, TaskSpecs shipped to remote
	// workers carry the context (wire version ≥ 2; old peers simply run
	// untraced), and each remote attempt decomposes into
	// queue/wire/decode/exec child spans. Nil keeps the PR 2
	// span stream byte-for-byte unchanged.
	TraceContext *TraceContext
	// Clock, when non-nil, replaces time.Now for the engine's wall-clock
	// reads (Metrics.WallTime and the Start/Wall fields of spans). A
	// FrozenClock zeroes every wall measurement, which — together with a
	// fixed Job.Seed — makes JSONL span files byte-identical across runs:
	// the determinism audit replay depends on. Simulated durations never
	// come from this clock; they come from the cost model.
	Clock func() time.Time
}

// NewCluster returns a cluster with n slaves and the default cost model.
func NewCluster(n int) *Cluster {
	return &Cluster{Slaves: n, Cost: DefaultCostModel()}
}

// Validate reports a configuration error, if any.
func (c *Cluster) Validate() error {
	if c.Slaves < 1 {
		return fmt.Errorf("mapreduce: cluster needs at least 1 slave, got %d", c.Slaves)
	}
	if err := c.Cost.validate(); err != nil {
		return err
	}
	return nil
}

// now returns the cluster's wall clock: Clock when set, time.Now otherwise.
func (c *Cluster) now() func() time.Time {
	if c.Clock != nil {
		return c.Clock
	}
	return time.Now
}

// FrozenClock returns a Clock stuck at t. Under a frozen clock every wall
// measurement is zero, so a traced run's span stream depends only on the
// job, seed and cluster — byte-identical across runs and machines, as long
// as no worker dies.
func FrozenClock(t time.Time) func() time.Time {
	return func() time.Time { return t }
}
