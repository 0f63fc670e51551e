package worker

import (
	"fmt"

	"repro/internal/mapreduce"
)

// SetInproc makes every worker this process serves — SpawnLocal goroutines,
// or the test binary run as a subprocess child — execute specs through e.
// Call it before any worker starts.
func SetInproc(e mapreduce.Executor) { inproc = e }

// Kill force-kills the i-th worker process and returns once it is gone — a
// chaos hook for tests that need a worker to die at a point of their
// choosing. The pool learns of the death when it next leases that worker a
// task.
func (e *SubprocessExecutor) Kill(i int) error {
	if i < 0 || i >= len(e.procs) {
		return fmt.Errorf("worker: no subprocess %d", i)
	}
	err := e.procs[i].cmd.Process.Kill()
	<-e.procs[i].done
	return err
}
