package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// TestConcurrentPassesByteIdentical is the determinism contract of concurrent
// pass scheduling: a batch whose two seed groups race through the pass
// semaphore (maxPasses is at least 2) answers each query with the bytes a
// serial, direct stratified.Pass over the same blocks draws. Concurrency may
// reorder which pass finishes first, but each pass owns its seed, its query
// order and its cluster, so the sampled individuals cannot change.
func TestConcurrentPassesByteIdentical(t *testing.T) {
	const slaves = 2
	seeds := []int64{3, 11}
	specs := []string{
		"nop >= 100 : 3",
		"nop >= 50 : 4",
		"ayp >= 5 : 2",
		"nop < 50 : 6",
	}
	d := newTestDaemon(t, Config{
		Population: gen.Population(3000, 1), Slaves: slaves, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: 30 * time.Second,
	})

	// 8 distinct entries (4 specs x 2 seeds) submitted to the batcher in
	// order — arrival order fixes the MQE query indexes — into one
	// long-window batch the flush fires: two seed groups, two passes,
	// concurrent under the semaphore.
	queries := make([]*query.SSD, len(specs))
	entries := make(map[int64][]*entry)
	for i, spec := range specs {
		q, cls, err := d.s.buildQuery(&sampleRequest{Query: spec})
		if err != nil {
			t.Fatal(err)
		}
		queries[i] = q
		for _, seed := range seeds {
			entries[seed] = append(entries[seed], d.s.batcher.submit(q, canonicalSSD(q, cls), seed, "", 0))
		}
	}
	d.s.batcher.flush()

	for _, seed := range seeds {
		blocks, release := d.s.pop.Acquire()
		want, _, err := stratified.Pass(mapreduce.NewCluster(slaves), queries, d.s.schema, blocks, stratified.Options{Seed: seed})
		release()
		if err != nil {
			t.Fatal(err)
		}
		for i, e := range entries[seed] {
			select {
			case <-e.done:
			case <-time.After(10 * time.Second):
				t.Fatalf("seed %d, %s: answer never arrived", seed, specs[i])
			}
			if e.err != nil {
				t.Fatalf("seed %d, %s: %v", seed, specs[i], e.err)
			}
			got, _ := json.Marshal(renderStrata(queries[i], e.ans))
			direct, _ := json.Marshal(renderStrata(queries[i], want[i]))
			if string(got) != string(direct) {
				t.Errorf("seed %d, %s: concurrent answer differs from a serial direct pass\ndirect     %s\nconcurrent %s", seed, specs[i], direct, got)
			}
		}
	}
	if snap := d.s.Stats(); snap.Passes != 2 {
		t.Errorf("passes = %d, want 2 (one per seed group)", snap.Passes)
	}
}

// TestOverlappingBatchesLiveMutationsRace stress-tests the warm-path daemon
// under the race detector: short-window batches overlap through the pass
// semaphore while a mutator rewrites the live population underneath them.
// Every request must succeed; the race detector checks the rest (pass reads
// under Acquire vs. Apply writes, pool handoff, inflight accounting).
func TestOverlappingBatchesLiveMutationsRace(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(500), Slaves: 2, Layout: dataset.RoundRobin,
		Window:         time.Millisecond,
		AdaptiveWindow: true, Live: true, StalenessBound: 8,
	})
	// A standing query keeps the subscriber-maintenance path in the mix.
	if code := d.postJSON(t, "/v1/subscribe", map[string]any{
		"query": "gender = 1 : 5 ; gender = 0 : 5", "seed": 2,
	}, nil); code != http.StatusOK {
		t.Fatalf("subscribe: status %d", code)
	}

	specs := []string{
		"gender = 1 : 4 ; gender = 0 : 4",
		"income >= 500 : 3 ; income < 500 : 3",
	}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				spec := specs[(c+i)%len(specs)]
				if _, code := d.post(t, map[string]any{"query": spec, "seed": int64(1 + i%3), "nocache": true}); code != http.StatusOK {
					t.Errorf("client %d query %d: status %d", c, i, code)
					return
				}
			}
		}(c)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			id := int64(10000 + i*2)
			muts := []map[string]any{
				{"op": "insert", "id": id, "attrs": []int64{id % 2, id % 1001}},
				{"op": "insert", "id": id + 1, "attrs": []int64{(id + 1) % 2, (id + 1) % 1001}},
				{"op": "delete", "id": int64(i * 7 % 500)},
				{"op": "update", "id": id, "attrs": []int64{id % 2, (id + 13) % 1001}},
			}
			if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": muts}, nil); code != http.StatusOK {
				t.Errorf("mutation batch %d: status %d", i, code)
				return
			}
		}
	}()
	// A scraper reads /metrics throughout: every body must pass the lint and
	// agree with itself — Stats and the population are each read under one
	// lock acquisition, so a counter and the histogram observed beside it
	// cannot be caught apart.
	stop, scraped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(scraped)
		for n := 0; ; n++ {
			v := lintExposition(t, fmt.Sprintf("scrape %d", n), d.metrics(t)).values
			if passes, occ := v["strata_serve_passes_total"], v["strata_serve_batch_occupancy_count"]; passes != occ {
				t.Errorf("scrape %d: %g passes but %g batch-occupancy observations", n, passes, occ)
			}
			ops := v[`strata_live_mutations_total{op="insert"}`] + v[`strata_live_mutations_total{op="delete"}`] + v[`strata_live_mutations_total{op="update"}`]
			if seq := v["strata_live_mutation_seq"]; ops != seq {
				t.Errorf("scrape %d: %g mutations by op but mutation_seq %g", n, ops, seq)
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped

	// An epoch bump after the churn exercises live-split rebalancing too.
	resp, err := http.Post(d.ts.URL+"/v1/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]int64
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if out["rebalanced"] == 0 {
		t.Error("epoch bump after live churn rebalanced nothing")
	}
	if _, code := d.post(t, map[string]any{"query": specs[0], "seed": 5, "nocache": true}); code != http.StatusOK {
		t.Errorf("post-rebalance query: status %d", code)
	}
}
