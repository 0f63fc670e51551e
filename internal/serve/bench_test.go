package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/query"
)

// BenchmarkServePass measures one warm 8-query MQE batch over a resident
// 100k population, end to end through the batcher: submit, fire, pooled
// cluster, engine pass, demux. Its allocs/op and B/op are gated by
// scripts/bench_regress.sh — this is the daemon's hot loop, and the reused
// scan scratch plus the fused map stage (no emission stream) are what keep
// both flat.
func BenchmarkServePass(b *testing.B) {
	const slaves = 4
	pop := gen.Population(100000, 1)
	s, err := NewServer(Config{
		Population: pop, Slaves: slaves, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: 30 * time.Second,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer func() {
		s.BeginDrain()
		s.Drain()
	}()

	type qc struct {
		q     *query.SSD
		canon string
	}
	queries := make([]qc, 8)
	for i := range queries {
		t := 50 + 10*i
		spec := fmt.Sprintf("nop >= %d : 5 ; nop < %d : 10", t, t)
		q, err := query.ParseSSD("Q", spec)
		if err != nil {
			b.Fatal(err)
		}
		cls, err := q.ValidClassifier(pop.Schema())
		if err != nil {
			b.Fatal(err)
		}
		queries[i] = qc{q: q, canon: canonicalSSD(q, cls)}
	}

	// Collect the population build's garbage first: the collector's next cycle
	// is then a whole heap away, not inside the measured passes.
	runtime.GC()

	// Warm-up batches, so reused state (cluster, scan scratch) exists before
	// measurement, like a daemon that has answered before.
	runBatch := func() {
		entries := make([]*entry, len(queries))
		for i, q := range queries {
			entries[i] = s.batcher.submit(q.q, q.canon, 1, "", 0)
		}
		s.batcher.flush()
		for _, e := range entries {
			<-e.done
			if e.err != nil {
				b.Fatal(e.err)
			}
		}
	}
	// A pass runs up to slaves map tasks at once, each holding its own scan
	// scratch, which the next task reuses. At fewer Ps than slaves only
	// preemption overlaps tasks, so how many scratches a pass needs is
	// scheduling: a measured pass that overlapped more tasks than the warm-up
	// grew a ≈ 1.7 MB scratch (437 KB for 99.5 KB B/op, 7 of 40 runs beside
	// two loaded processes). Warming up on one P per slave overlaps them all,
	// so every scratch a pass can need exists before measurement.
	procs := runtime.GOMAXPROCS(slaves)
	for range 3 {
		runBatch()
	}
	runtime.GOMAXPROCS(procs)
	runBatch()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch()
	}
}
