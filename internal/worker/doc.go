// Package worker is the distributed execution runtime behind the mapreduce
// Cluster API: a coordinator-side task pool plus worker processes that lease
// task attempts, execute them through the shared task cores, and stream the
// results back.
//
// There is one transport and two ways to get processes onto it. TCPExecutor
// listens on a socket; workers dial in and register with a hello frame. They are
// local goroutines (SpawnLocal), external processes ("strata worker
// -connect"), or the children of a SubprocessExecutor — a TCPExecutor on an
// ephemeral loopback port that starts a fixed pool of "worker -connect"
// processes itself, fails fast when one dies before registering, and reaps
// them on Close.
//
// The coordinator pool (pool.go) is shared: tasks queue centrally,
// idle workers lease them, heartbeats keep leases alive, and a worker that
// crashes or goes silent past the lease timeout forfeits its attempt — the
// task is re-enqueued with backoff, up to a bounded attempt budget, and the
// failed attempts surface in the engine's metrics and trace as failed spans
// tagged with the worker id. Those are the only failed attempts there are.
//
// The protocol (protocol.go) is deliberately small: length-prefixed frames
// in the binary wire codec (wire.go) carrying hello, task, result, heartbeat
// and drain messages. A worker whose hello announces another wire version
// is refused (ErrWireVersion). The shuffle has one route: a map result
// carries its buckets to the coordinator and each reduce task frame carries
// its reducer's column, so a worker that dies at any point costs a retry of
// its task on another worker and no map task ever runs again. Task payloads
// are the engine's encodings through the job's own codecs, and a worker
// runs every spec through stratified.Inproc — the one job, rebuilt from the
// spec's config by the task cores the engine uses — so a job's output and,
// under a frozen clock, its span file are byte-identical no matter which
// backend ran it.
package worker
