// Package mapreduce implements a MapReduce engine with the semantics the
// paper's algorithms rely on: a map phase over input splits, with per-task
// combining inside the map stage, a hash-partitioned shuffle with byte
// accounting, and a reduce phase. Tasks run concurrently on goroutines, or — with an Executor
// on the Cluster — on worker processes.
//
// # Execution model
//
// Run is the one engine loop. Map tasks run on a bounded worker pool and
// leave per-reducer buckets behind; then, one unit of work per reducer, the
// reducer's bucket column is assembled in map-task order, grouped and
// reduced. How a task executes and where its buckets stay is behind a
// two-method backend seam with two implementations: in-process (closures,
// typed buckets kept in memory, nothing encoded) and remote (TaskSpec →
// Executor, buckets routed through the coordinator or pushed directly
// between workers). Scheduling, metric folding, the virtual clock and span
// emission exist once, in the loop.
//
// A job's map stage is one whole-split call (Mapper.MapSplit) and the only
// map interface: a stage either forwards every match to the shuffle or
// aggregates in place and emits only what is shuffled, and reports both
// counts so metrics and the cost model read as for a mapper with or without a
// combiner. The sampling jobs combine, drawing each key's intermediate sample
// from its match list once the split is scanned, so a task costs min(k, n)
// RNG draws per key instead of one per tuple. Output is byte-identical to a
// serial run on every backend.
//
// # Virtual clock
//
// Because the original evaluation ran on a Hadoop cluster whose wall-clock
// behaviour we cannot reproduce on one machine, the engine additionally keeps
// a *virtual clock*: a configurable cost model assigns each task a simulated
// duration from its measured record and byte counts, and a scheduler computes
// the makespan over the cluster's map/reduce slots. A task is charged once,
// for its measured counts: nothing is injected into that clock, and the only
// failed attempts a run reports (Metrics.MapAttempts / ReduceAttempts, Failed
// spans) are attempts that really died on a worker. Counters (records,
// groups, shuffled bytes) are always measured, never modelled.
//
// # Observability
//
// A Tracer installed on the Cluster receives one Span per task attempt
// (those that died on a worker included), combine (of a job that combined
// anything), shuffle leg and job, carrying
// wall and simulated durations plus record/byte counts; implementations
// include an in-memory collector and a JSON-lines sink that `strata trace`
// renders into a per-phase timeline. Metrics carries per-phase Histograms
// (task latency, shuffle bucket bytes), user histograms observed through
// TaskContext.Observe, and optional per-key counters, and exports itself as
// JSON or Prometheus text. With a nil (or disabled) tracer every hook
// compiles down to a branch, keeping the hot path at its benchmarked speed.
//
// # Determinism
//
// Every map task and every reduce key gets its own random source, seeded
// from the job seed and the task index or key string, so a job's output is
// reproducible regardless of goroutine interleaving — and so is every
// Metrics field except the measured wall times.
package mapreduce
