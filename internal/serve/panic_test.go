package serve

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/stratified"
)

// panickyExecutor panics inside the engine's task goroutines while armed and
// executes tasks in-process otherwise.
type panickyExecutor struct {
	mapreduce.Executor
	armed atomic.Bool
}

func (*panickyExecutor) Name() string { return "panicky" }

func (p *panickyExecutor) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	if p.armed.Load() {
		panic("executor blew up")
	}
	return p.Executor.Execute(spec)
}

// TestPassPanicFailsWaitersNotDaemon: a panic inside a pass — here on an
// engine worker goroutine — answers every request waiting on that pass with
// a 500, is counted, and leaves the daemon serving the next request.
func TestPassPanicFailsWaitersNotDaemon(t *testing.T) {
	exec := &panickyExecutor{Executor: stratified.Inproc}
	exec.armed.Store(true)
	d := newTestDaemon(t, Config{
		Population: gen.Population(2000, 1), Slaves: 2, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: 40 * time.Millisecond,
		NewCluster: func(slaves int) *mapreduce.Cluster {
			c := mapreduce.NewCluster(slaves)
			c.Executor = exec
			return c
		},
	})

	specs := []string{"nop >= 100 : 3", "nop >= 50 : 4", "ayp >= 5 : 2", "nop < 50 : 6"}
	statuses := make([]int, len(specs))
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			_, statuses[i] = d.post(t, map[string]any{"query": spec, "seed": 5, "nocache": true})
		}(i, spec)
	}
	answered := make(chan struct{})
	go func() { wg.Wait(); close(answered) }()
	select {
	case <-answered:
	case <-time.After(10 * time.Second):
		t.Fatal("requests riding the panicking pass were never answered")
	}
	for i, st := range statuses {
		if st != http.StatusInternalServerError {
			t.Errorf("request %d: status %d, want 500", i, st)
		}
	}

	exec.armed.Store(false)
	resp, st := d.post(t, map[string]any{"query": specs[1], "seed": 5, "nocache": true})
	if st != http.StatusOK {
		t.Fatalf("request after the panic: status %d, want 200", st)
	}
	if got := len(resp.Strata[0].Individuals); got != 4 {
		t.Errorf("request after the panic: %d individuals, want 4", got)
	}

	snap := d.s.Stats()
	if snap.PassPanics < 1 || snap.PassPanics > int64(len(specs)) {
		t.Errorf("pass_panics = %d, want between 1 and %d", snap.PassPanics, len(specs))
	}
	m, err := http.Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer m.Body.Close()
	body, _ := io.ReadAll(m.Body)
	if !strings.Contains(string(body), "\nstrata_serve_pass_panics_total ") {
		t.Error("/metrics lacks strata_serve_pass_panics_total")
	}
}
