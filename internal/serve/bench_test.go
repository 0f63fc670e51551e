package serve

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/predicate"
	"repro/internal/query"
)

// BenchmarkServePass measures one warm 8-query MQE batch over a resident
// 100k population, end to end through the batcher: submit, fire, pooled
// cluster, engine pass, demux. Its allocs/op and B/op are gated by
// scripts/bench_regress.sh — this is the daemon's hot loop, and the pooled
// pass state plus the fused map stage (no emission stream) are what keep
// both flat.
func BenchmarkServePass(b *testing.B) {
	pop := gen.Population(100000, 1)
	s, err := NewServer(Config{
		Population: pop, Slaves: 4, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: 30 * time.Second, MaxBatch: 64,
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
		cls   *predicate.Classifier
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
		queries[i] = qc{q: q, cls: cls, canon: canonicalSSD(q, cls)}
	}

	// Collect the population build's garbage first: the collector's next cycle
	// is then a whole heap away, not inside the measured passes, where it
	// would empty the pooled scratch and read as 10× the B/op.
	runtime.GC()

	// One warm-up batch so pooled state (cluster, executor scratch) exists
	// before measurement, like a daemon that has answered at least once.
	runBatch := func() {
		entries := make([]*entry, len(queries))
		for i, q := range queries {
			entries[i] = s.batcher.submit(q.q, q.cls, q.canon, 1, "", 0)
		}
		s.batcher.flush()
		for _, e := range entries {
			<-e.done
			if e.err != nil {
				b.Fatal(e.err)
			}
		}
	}
	runBatch()

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runBatch()
	}
}
