// Package worker is the distributed execution runtime behind the mapreduce
// Cluster API: a coordinator-side task pool plus worker processes that lease
// task attempts, execute them through the shared task cores, and stream the
// results back.
//
// Two executors implement mapreduce.Executor:
//
//   - SubprocessExecutor starts a fixed pool of child processes (by default
//     re-executing the current binary with "worker -stdio") and speaks the
//     wire protocol over their stdin/stdout pipes.
//   - TCPExecutor listens on a socket; workers — local goroutines via
//     SpawnLocal, or external processes via "strata worker -connect" — dial
//     in and register with a hello frame.
//
// Both share the same coordinator pool (pool.go): tasks queue centrally,
// idle workers lease them, heartbeats keep leases alive, and a worker that
// crashes or goes silent past the lease timeout forfeits its attempt — the
// task is re-enqueued with backoff, up to a bounded attempt budget, and the
// real failed attempts surface in the engine's trace as failed spans tagged
// with the worker id.
//
// The protocol (protocol.go) is deliberately small: length-prefixed frames
// in the binary wire codec (wire.go) carrying hello, task, result, heartbeat
// and drain messages. A worker whose hello announces another wire version
// is refused (ErrWireVersion). Task payloads reuse the engine's shuffle
// encoding, and workers execute specs through mapreduce.ExecuteTask, so a
// job's output — and, under a frozen clock, its span file — is
// byte-identical no matter which backend ran it.
package worker
