package worker

import "repro/internal/mapreduce"

// SetInproc makes every worker this process serves — SpawnLocal goroutines,
// or the test binary run as a subprocess child — execute specs through e.
// Call it before any worker starts.
func SetInproc(e mapreduce.Executor) { inproc = e }
