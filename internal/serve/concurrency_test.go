package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
)

// TestConcurrentPassesByteIdentical is the determinism contract of concurrent
// pass scheduling: the same batch of queries answered under -max-passes 1
// (fully serial) and -max-passes 8 (seed groups racing through the semaphore)
// produces byte-identical answer sections per query. Concurrency may reorder
// which pass finishes first, but each pass owns its seed, its query order and
// its cluster, so the sampled individuals cannot change.
func TestConcurrentPassesByteIdentical(t *testing.T) {
	const (
		popN  = 3000
		seedA = int64(3)
		seedB = int64(11)
	)
	specs := []string{
		"nop >= 100 : 3",
		"nop >= 50 : 4",
		"ayp >= 5 : 2",
		"nop < 50 : 6",
	}
	pop := gen.Population(popN, 1)

	// collect answers one daemon's worth at a time: 8 distinct entries
	// (4 specs x 2 seeds) submitted asynchronously IN ORDER — batch arrival
	// order fixes the MQE query indexes, so it must be identical across the
	// two daemons for the comparison to isolate the scheduler — into one
	// long-window batch that MaxBatch=8 fires as the last entry arrives. Two
	// seed groups -> two passes, concurrent when the semaphore allows it.
	collect := func(maxPasses int) map[string][]byte {
		d := newTestDaemon(t, Config{
			Population: pop, Slaves: 2, Layout: dataset.Contiguous,
			PartitionSeed: 1, Window: 30 * time.Second, MaxBatch: 8,
			MaxPasses: maxPasses,
		})
		type pending struct {
			key    string
			ticket string
		}
		var tickets []pending
		for _, seed := range []int64{seedA, seedB} {
			for _, spec := range specs {
				raw, _ := json.Marshal(map[string]any{"query": spec, "seed": seed, "nocache": true, "wait": false})
				resp, err := http.Post(d.ts.URL+"/v1/sample", "application/json", bytes.NewReader(raw))
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("seed %d %q: status %d, want 202", seed, spec, resp.StatusCode)
				}
				var sub struct {
					ID string `json:"id"`
				}
				if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
					t.Fatal(err)
				}
				resp.Body.Close()
				tickets = append(tickets, pending{key: fmt.Sprintf("%d|%s", seed, spec), ticket: sub.ID})
			}
		}
		answers := make(map[string][]byte)
		deadline := time.Now().Add(10 * time.Second)
		for _, p := range tickets {
			for {
				resp, err := http.Get(d.ts.URL + "/v1/result?id=" + p.ticket)
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode == http.StatusOK {
					var out sampleResponse
					if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
						t.Fatal(err)
					}
					resp.Body.Close()
					raw, err := json.Marshal(out.Strata)
					if err != nil {
						t.Fatal(err)
					}
					answers[p.key] = raw
					break
				}
				resp.Body.Close()
				if time.Now().After(deadline) {
					t.Fatalf("result for %s never became ready", p.key)
				}
				time.Sleep(time.Millisecond)
			}
		}
		if snap := d.s.Stats(); snap.Passes != 2 {
			t.Errorf("max-passes %d: passes = %d, want 2 (one per seed group)", maxPasses, snap.Passes)
		}
		return answers
	}

	serial := collect(1)
	concurrent := collect(8)
	if len(serial) != len(specs)*2 || len(concurrent) != len(serial) {
		t.Fatalf("collected %d serial vs %d concurrent answers, want %d", len(serial), len(concurrent), len(specs)*2)
	}
	for k, want := range serial {
		if got := concurrent[k]; string(got) != string(want) {
			t.Errorf("%s: concurrent answer differs from serial\nserial     %s\nconcurrent %s", k, want, got)
		}
	}
}

// TestOverlappingBatchesLiveMutationsRace stress-tests the warm-path daemon
// under the race detector: short-window batches overlap through the pass
// semaphore while a mutator rewrites the live population underneath them.
// Every request must succeed; the race detector checks the rest (pass reads
// under AcquireSplits vs. Apply writes, pool handoff, inflight accounting).
func TestOverlappingBatchesLiveMutationsRace(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(500), Slaves: 2, Layout: dataset.RoundRobin,
		Window: time.Millisecond, MaxBatch: 4, MaxPasses: 4,
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
