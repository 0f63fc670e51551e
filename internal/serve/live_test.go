package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/mapreduce"
)

// livePopulation builds a small two-field relation (gender 0/1 alternating,
// income) — easy to assert stratum counts against.
func livePopulation(n int) *dataset.Relation {
	r := dataset.NewRelation(dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	))
	for id := int64(0); id < int64(n); id++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{(id + 1) % 2, id % 1001}})
	}
	return r
}

func newLiveDaemon(t *testing.T, n int) *testDaemon {
	t.Helper()
	return newTestDaemon(t, Config{
		Population: livePopulation(n), Slaves: 2, Layout: dataset.RoundRobin,
		Window: 0, Live: true, StalenessBound: 8,
	})
}

// postJSON posts a body to a path and decodes the JSON reply into out (when
// non-nil), returning the status code.
func (d *testDaemon) postJSON(t *testing.T, path string, body any, out any) int {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(d.ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

func TestLiveSubscribeMutatePush(t *testing.T) {
	d := newLiveDaemon(t, 200)
	q := "gender = 1 : 5 ; gender = 0 : 5"

	var subResp struct {
		Subscription string `json:"subscription"`
		Version      int64  `json:"version"`
	}
	if code := d.postJSON(t, "/v1/subscribe", map[string]any{
		"query": q, "seed": 2, "every_mutations": 3,
	}, &subResp); code != http.StatusOK {
		t.Fatalf("subscribe: status %d", code)
	}
	if subResp.Subscription == "" {
		t.Fatal("no subscription id")
	}

	// The same query+seed now answers warm from the standing reservoirs.
	ans, code := d.post(t, map[string]any{"query": q, "seed": 2})
	if code != http.StatusOK || !ans.Live {
		t.Fatalf("warm sample: status %d live %v", code, ans != nil && ans.Live)
	}
	if len(ans.LiveMeta) != 2 || ans.LiveMeta[0].Members != 100 || ans.LiveMeta[1].Members != 100 {
		t.Fatalf("warm meta %+v, want 100/100 members", ans.LiveMeta)
	}
	if len(ans.Strata[0].Individuals) != 5 || len(ans.Strata[1].Individuals) != 5 {
		t.Fatalf("warm sample sizes %d/%d, want 5/5", ans.Strata[0].Count, ans.Strata[1].Count)
	}
	// A different seed is an ad-hoc query: engine pass, not the warm path.
	if ans2, _ := d.post(t, map[string]any{"query": q, "seed": 99}); ans2.Live {
		t.Fatal("ad-hoc seed answered from the warm path")
	}
	snap := d.s.Stats()
	if snap.LiveHits != 1 || snap.Subscriptions != 1 {
		t.Fatalf("live hits %d subscriptions %d, want 1/1", snap.LiveHits, snap.Subscriptions)
	}

	// Three mutations reach the every_mutations=3 trigger: a push publishes
	// before /v1/mutate returns.
	var applied live.Applied
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": []map[string]any{
		{"op": "insert", "id": 9000, "attrs": []int64{1, 10}},
		{"op": "insert", "id": 9001, "attrs": []int64{1, 11}},
		{"op": "delete", "id": 1}, // id 1 is a woman ((1+1)%2 = 0)
	}}, &applied); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	if applied.Applied != 3 || applied.Inserts != 2 || applied.Deletes != 1 {
		t.Fatalf("applied %+v", applied)
	}

	resp, err := http.Get(d.ts.URL + "/v1/next?id=" + subResp.Subscription + "&after=0&timeout_ms=5000")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("next: status %d", resp.StatusCode)
	}
	var ev pushEvent
	if err := json.NewDecoder(resp.Body).Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.MutationSeq != 3 {
		t.Fatalf("push seq %d mutation_seq %d, want 1/3", ev.Seq, ev.MutationSeq)
	}
	if ev.Meta[0].Members != 102 || ev.Meta[1].Members != 99 {
		t.Fatalf("push members %+v, want 102 men / 99 women", ev.Meta)
	}

	// Nothing new: the long-poll times out with 204.
	resp2, err := http.Get(d.ts.URL + "/v1/next?id=" + subResp.Subscription + "&after=1&timeout_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("idle next: status %d, want 204", resp2.StatusCode)
	}

	// Unsubscribe; the id stops resolving and a second delete 404s.
	req, _ := http.NewRequest(http.MethodDelete, d.ts.URL+"/v1/subscribe?id="+subResp.Subscription, nil)
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("unsubscribe: %v %d", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}
	if resp, err := http.DefaultClient.Do(req); err != nil || resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double unsubscribe: %v %d, want 404", err, resp.StatusCode)
	} else {
		resp.Body.Close()
	}

	// The standing query remains registered: warm sampling still works.
	if ans3, _ := d.post(t, map[string]any{"query": q, "seed": 2}); !ans3.Live {
		t.Fatal("warm path lost after unsubscribe")
	}
}

func TestLiveStalenessRepairOverHTTP(t *testing.T) {
	d := newLiveDaemon(t, 200) // StalenessBound 8
	q := "gender = 1 : 10 ; gender = 0 : 10"
	var subResp struct {
		Subscription string `json:"subscription"`
	}
	if code := d.postJSON(t, "/v1/subscribe", map[string]any{"query": q, "seed": 1}, &subResp); code != http.StatusOK {
		t.Fatalf("subscribe: status %d", code)
	}
	// Delete 40 men (even ids are men): five repairs at bound 8, staleness
	// never past the bound.
	muts := make([]map[string]any, 0, 40)
	for id := int64(0); id < 80; id += 2 {
		muts = append(muts, map[string]any{"op": "delete", "id": id})
	}
	var applied live.Applied
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": muts}, &applied); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	if applied.Repairs != 5 {
		t.Fatalf("repairs %d, want 5", applied.Repairs)
	}
	snap := d.s.Stats()
	if snap.Live == nil || snap.Live.Repairs != 5 || snap.Live.MaxStaleness > 8 {
		t.Fatalf("live stats %+v, want 5 repairs within bound 8", snap.Live)
	}
	if snap.Pushes == 0 || snap.PushP99Usec < 0 {
		t.Fatalf("pushes %d, want > 0", snap.Pushes)
	}
}

func TestLiveSSEStream(t *testing.T) {
	d := newLiveDaemon(t, 100)
	var subResp struct {
		Subscription string `json:"subscription"`
	}
	if code := d.postJSON(t, "/v1/subscribe", map[string]any{
		"query": "gender = 1 : 4 ; gender = 0 : 4", "seed": 3, "every_mutations": 1,
	}, &subResp); code != http.StatusOK {
		t.Fatalf("subscribe: status %d", code)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.ts.URL+"/v1/stream?id="+subResp.Subscription, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}

	events := make(chan pushEvent, 4)
	go func() {
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev pushEvent
			if json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &ev) == nil {
				events <- ev
			}
		}
		close(events)
	}()

	if code := d.postJSON(t, "/v1/mutate", map[string]any{
		"op": "insert", "id": 7000, "attrs": []int64{1, 5},
	}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	ev, ok := <-events
	if !ok {
		t.Fatal("stream closed before the push arrived")
	}
	if ev.Seq != 1 || ev.Meta[0].Members != 51 {
		t.Fatalf("push %+v, want seq 1 with 51 men", ev)
	}
}

func TestLiveAdHocCacheInvalidatedByMutation(t *testing.T) {
	d := newLiveDaemon(t, 300)
	q := map[string]any{"query": "income >= 500 : 6 ; income < 500 : 6", "seed": 4}
	first, _ := d.post(t, q)
	second, _ := d.post(t, q)
	if first.Cached || !second.Cached {
		t.Fatalf("cache priming wrong: first %v second %v", first.Cached, second.Cached)
	}
	if code := d.postJSON(t, "/v1/mutate", map[string]any{
		"op": "delete", "id": 7,
	}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	third, _ := d.post(t, q)
	if third.Cached {
		t.Fatal("mutation did not invalidate the ad-hoc cache")
	}
	if third.Epoch <= second.Epoch {
		t.Fatalf("effective epoch did not advance: %d -> %d", second.Epoch, third.Epoch)
	}
	// The fresh pass must not see the deleted member: sample again with many
	// seeds cheaply by checking population via healthz instead.
	resp, err := http.Get(d.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Population  int   `json:"population"`
		Live        bool  `json:"live"`
		MutationSeq int64 `json:"mutation_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if !hz.Live || hz.Population != 299 || hz.MutationSeq != 1 {
		t.Fatalf("healthz %+v, want live population 299 at seq 1", hz)
	}
}

func TestEpochReturnsPurgedCount(t *testing.T) {
	pop := gen.Population(500, 1)
	d := newTestDaemon(t, Config{Population: pop, Slaves: 2, Layout: dataset.Contiguous, Window: 0})
	// Two distinct cached answers.
	for _, spec := range []string{"nop >= 100 : 5 ; nop < 100 : 5", "nop >= 200 : 5 ; nop < 200 : 5"} {
		if _, code := d.post(t, map[string]any{"query": spec}); code != http.StatusOK {
			t.Fatalf("sample: status %d", code)
		}
	}
	var bump struct {
		Epoch  int64 `json:"epoch"`
		Purged int64 `json:"purged"`
	}
	if code := d.postJSON(t, "/v1/epoch", map[string]any{}, &bump); code != http.StatusOK {
		t.Fatalf("epoch: status %d", code)
	}
	if bump.Epoch != 2 || bump.Purged != 2 {
		t.Fatalf("bump %+v, want epoch 2 purging 2 entries", bump)
	}
	snap := d.s.Stats()
	if snap.CachePurges != 1 || snap.CachePurged != 2 {
		t.Fatalf("purge counters %d/%d, want 1/2", snap.CachePurges, snap.CachePurged)
	}
}

func TestLiveEndpointsRejectWithoutLiveMode(t *testing.T) {
	pop := gen.Population(200, 1)
	d := newTestDaemon(t, Config{Population: pop, Slaves: 2, Window: 0})
	for _, path := range []string{"/v1/mutate", "/v1/subscribe"} {
		code := d.postJSON(t, path, map[string]any{"op": "delete", "id": 1}, nil)
		if code != http.StatusBadRequest {
			t.Fatalf("%s without -live: status %d, want 400", path, code)
		}
	}
	for _, path := range []string{"/v1/stream", "/v1/next"} {
		resp, err := http.Get(d.ts.URL + path + "?id=x")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s without -live: status %d, want 400", path, resp.StatusCode)
		}
	}
}

func TestLiveMetricsExposition(t *testing.T) {
	d := newLiveDaemon(t, 100)
	if code := d.postJSON(t, "/v1/subscribe", map[string]any{
		"query": "gender = 1 : 3 ; gender = 0 : 3", "seed": 1,
	}, nil); code != http.StatusOK {
		t.Fatalf("subscribe: status %d", code)
	}
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"op": "delete", "id": 2}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	resp, err := http.Get(d.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		"strata_live_mutations_total{op=\"delete\"} 1",
		"strata_live_population 99",
		"strata_live_staleness_bound 8",
		"strata_serve_subscriptions 1",
		"strata_serve_pushes_total 1",
		"strata_serve_cache_purged_total 0",
		"strata_serve_push_nanos_count 1",
		// 99 members left: 2 int32 attributes and an int32 wire size in
		// columns, 48-byte headers + 2 values in rows.
		"strata_serve_resident_bytes{layout=\"columns\"} 1188",
		"strata_serve_resident_bytes{layout=\"rows\"} 6336",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("metrics body:\n%s", body)
	}
}

// TestLiveCacheHoldsOneEpoch interleaves cacheable samples with mutations:
// the cache never holds more answers than the distinct (query, seed) pairs
// answered since the last mutation, and a repeat inside a round is still a
// hit.
func TestLiveCacheHoldsOneEpoch(t *testing.T) {
	d := newLiveDaemon(t, 400)
	specs := []string{"income >= 500 : 4 ; income < 500 : 4", "gender = 1 : 3 ; gender = 0 : 3", "income < 100 : 5"}
	rng := rand.New(rand.NewSource(7))
	for round := range 6 {
		if round > 0 {
			if code := d.postJSON(t, "/v1/mutate", map[string]any{"op": "delete", "id": round}, nil); code != http.StatusOK {
				t.Fatalf("mutate: status %d", code)
			}
			if n := d.s.Stats().CacheEntries; n != 0 {
				t.Fatalf("round %d: %d entries right after a mutation, want 0", round, n)
			}
		}
		answered := map[cacheKey]bool{}
		for range 8 {
			k := cacheKey{canon: specs[rng.Intn(len(specs))], seed: int64(rng.Intn(2))}
			r, code := d.post(t, map[string]any{"query": k.canon, "seed": k.seed})
			if code != http.StatusOK {
				t.Fatalf("sample: status %d", code)
			}
			if r.Cached != answered[k] {
				t.Fatalf("round %d %v: cached %v, answered before this round %v", round, k, r.Cached, answered[k])
			}
			if want := d.s.effectiveEpoch(); r.Epoch != want {
				t.Fatalf("round %d: answer at epoch %d, effective epoch %d", round, r.Epoch, want)
			}
			answered[k] = true
			if n := d.s.Stats().CacheEntries; n > int64(len(answered)) {
				t.Fatalf("round %d: %d cache entries for %d distinct pairs answered this epoch", round, n, len(answered))
			}
		}
	}
	if snap := d.s.Stats(); snap.CachePurged == 0 || snap.CachePurges != 0 {
		t.Fatalf("purge counters %d/%d, want mutations to drop entries without a bump", snap.CachePurges, snap.CachePurged)
	}
}

// TestLiveStraddlingPassNotCached: a batch admitted before a mutation still
// answers every waiter, but its answer is keyed on the superseded epoch and
// never served from the cache.
func TestLiveStraddlingPassNotCached(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(400), Slaves: 2, Layout: dataset.RoundRobin,
		Live: true, StalenessBound: 8, Window: time.Hour,
	})
	const waiters = 4
	spec := "income >= 500 : 4 ; income < 500 : 4"
	answers := make(chan *sampleResponse, waiters)
	submit := func() {
		go func() {
			raw, _ := json.Marshal(map[string]any{"query": spec, "seed": 3})
			resp, err := http.Post(d.ts.URL+"/v1/sample", "application/json", bytes.NewReader(raw))
			if err != nil {
				answers <- nil
				return
			}
			defer resp.Body.Close()
			var r sampleResponse
			if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&r) != nil {
				answers <- nil
				return
			}
			answers <- &r
		}()
	}
	for range waiters {
		submit()
	}
	waitFor(t, "every waiter to join the batch", func() bool {
		_, attached, _ := d.window()
		return attached == waiters
	})
	admitted := d.s.effectiveEpoch()
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"op": "delete", "id": 9}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	d.s.Stats() // moves the cache to the mutation's epoch
	d.s.batcher.flush()
	var first *sampleResponse
	for i := range waiters {
		r := mustAnswer(t, fmt.Sprintf("waiter %d", i), answers)
		if r.Cached || r.Epoch != admitted {
			t.Fatalf("waiter %d: cached %v at epoch %d, want a pass at %d", i, r.Cached, r.Epoch, admitted)
		}
		if first == nil {
			first = r
		} else if !reflect.DeepEqual(respIndividuals(r), respIndividuals(first)) {
			t.Fatalf("waiter %d got a different answer", i)
		}
	}
	d.s.Drain()
	if n := d.s.Stats().CacheEntries; n != 0 {
		t.Fatalf("the straddling answer was cached: %d entries", n)
	}
	submit()
	waitFor(t, "the repeat to open a batch", func() bool {
		_, attached, _ := d.window()
		return attached == 1
	})
	d.s.batcher.flush()
	if r := mustAnswer(t, "repeat", answers); r.Cached || r.Epoch != admitted+1 {
		t.Fatalf("repeat: cached %v at epoch %d, want a fresh pass at %d", r.Cached, r.Epoch, admitted+1)
	}
}

// healthzPopulation reads /healthz's population count.
func (d *testDaemon) healthzPopulation(t *testing.T) int {
	t.Helper()
	resp, err := http.Get(d.ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var hz struct {
		Population int `json:"population"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	return hz.Population
}

// TestLiveMutationsLeaveTheRelation: a live daemon's contiguous splits share
// the rows of the relation it was started from, and /v1/mutate and the epoch
// re-cut edit copies of them, so that relation ends as it began. The id
// index waits for the first mutation; /healthz counts the members without it.
func TestLiveMutationsLeaveTheRelation(t *testing.T) {
	rel := livePopulation(200)
	before := make([]dataset.Tuple, rel.Len())
	for i, tp := range rel.Tuples() {
		before[i] = tp.Clone()
	}
	d := newTestDaemon(t, Config{
		Population: rel, Slaves: 2, Splits: 4, Layout: dataset.Contiguous,
		Window: 0, Live: true, StalenessBound: 2,
	})
	q := map[string]any{"query": "gender = 1 : 5 ; gender = 0 : 5", "seed": 3}
	if _, code := d.post(t, q); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	if n := d.healthzPopulation(t); n != 200 || d.s.popIndexed() {
		t.Fatalf("before any mutation: population %d, index built %v; want 200, false", n, d.s.popIndexed())
	}
	// Split si holds ids 50si..50si+49; the inserts go one to each split.
	var muts []map[string]any
	for si := 0; si < 4; si++ {
		muts = append(muts,
			map[string]any{"op": "update", "id": 50*si + 1, "attrs": []int64{0, 999}},
			map[string]any{"op": "delete", "id": 50*si + 2},
			map[string]any{"op": "insert", "id": 1000 + si, "attrs": []int64{1, 5}})
	}
	var applied live.Applied
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": muts}, &applied); code != http.StatusOK || applied.Applied != 12 {
		t.Fatalf("mutate: status %d, %+v", code, applied)
	}
	if n := d.healthzPopulation(t); n != 200 || !d.s.popIndexed() {
		t.Fatalf("after the first mutation: population %d, index built %v; want 200, true", n, d.s.popIndexed())
	}
	if code := d.postJSON(t, "/v1/epoch", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("epoch: status %d", code)
	}
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"op": "delete", "id": 120}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	if _, code := d.post(t, q); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	if n := d.healthzPopulation(t); n != 199 {
		t.Errorf("population %d, want 199", n)
	}
	if !reflect.DeepEqual(rel.Tuples(), before) {
		t.Error("mutating the daemon changed the relation it was started from")
	}
}

// TestStaticDaemonNeverBuildsTheIndex: a daemon without Live answers,
// reports and bumps its epoch without ever building the id index.
func TestStaticDaemonNeverBuildsTheIndex(t *testing.T) {
	d := newTestDaemon(t, Config{Population: gen.Population(500, 2), Slaves: 2, Layout: dataset.Contiguous, Window: 0})
	q := map[string]any{"query": "nop >= 100 : 5 ; nop < 100 : 5"}
	if _, code := d.post(t, q); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	for _, path := range []string{"/healthz", "/v1/stats", "/metrics"} {
		resp, err := http.Get(d.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if code := d.postJSON(t, "/v1/epoch", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("epoch: status %d", code)
	}
	if _, code := d.post(t, q); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	if n := d.healthzPopulation(t); n != 500 {
		t.Errorf("population %d, want 500", n)
	}
	if d.s.popIndexed() {
		t.Error("a static daemon built the id index")
	}
}

// TestExecutorDaemonMatchesInProcess: a live daemon whose passes ship to an
// Executor keeps the same resident layout as an in-process one. Through a
// seeded mutation stream that repairs both standing queries many times, its
// warm and ad-hoc answers equal the in-process daemon's after every batch,
// and its repair count and resident bytes equal them at the end.
func TestExecutorDaemonMatchesInProcess(t *testing.T) {
	const n = 600
	daemons := [2]*testDaemon{}
	for i, newCluster := range []func(int) *mapreduce.Cluster{nil, executorCluster} {
		daemons[i] = newTestDaemon(t, Config{
			Population: livePopulation(n), Slaves: 2, Layout: dataset.ShuffledContiguous,
			PartitionSeed: 6, Splits: 4, Window: 0, Live: true, StalenessBound: 4,
			NewCluster: newCluster,
		})
	}
	standing := []string{
		"gender = 1 : 10 ; gender = 0 : 10",
		"income < 250 : 4 ; income >= 250 and income < 500 : 3 ; income >= 500 and income < 750 : 5 ; income >= 750 : 6",
	}
	for _, d := range daemons {
		for _, q := range standing {
			if code := d.postJSON(t, "/v1/subscribe", map[string]any{"query": q, "seed": 3}, nil); code != http.StatusOK {
				t.Fatalf("subscribe %q: status %d", q, code)
			}
		}
	}
	requests := []map[string]any{
		{"query": standing[0], "seed": 3},
		{"query": standing[1], "seed": 3},
		{"query": "gender = 1 and income < 500 : 7 ; gender = 0 : 5", "seed": 8, "nocache": true},
		{"query": standing[1], "seed": 9, "nocache": true},
	}
	// answer is the response body without its elapsed time and random trace id.
	answer := func(d *testDaemon, req map[string]any) []byte {
		t.Helper()
		r, code := d.post(t, req)
		if code != http.StatusOK {
			t.Fatalf("sample %v: status %d", req, code)
		}
		if _, warm := req["nocache"]; r.Live == warm {
			t.Fatalf("sample %v: live %v", req, r.Live)
		}
		r.ElapsedUS, r.Trace = 0, ""
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return raw
	}
	stats := func(d *testDaemon) Snapshot {
		t.Helper()
		resp, err := http.Get(d.ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var snap Snapshot
		if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
			t.Fatal(err)
		}
		return snap
	}

	rng := rand.New(rand.NewSource(36))
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	next := int64(10_000)
	for batch := 0; batch < 12; batch++ {
		muts := make([]map[string]any, 0, 25)
		for len(muts) < cap(muts) {
			attrs := []int64{rng.Int63n(2), rng.Int63n(1001)}
			switch r := rng.Intn(4); {
			case r < 2:
				i := rng.Intn(len(ids))
				muts = append(muts, map[string]any{"op": "delete", "id": ids[i]})
				ids[i] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			case r == 2:
				muts = append(muts, map[string]any{"op": "insert", "id": next, "attrs": attrs})
				ids = append(ids, next)
				next++
			default:
				muts = append(muts, map[string]any{"op": "update", "id": ids[rng.Intn(len(ids))], "attrs": attrs})
			}
		}
		for _, d := range daemons {
			var applied live.Applied
			if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": muts}, &applied); code != http.StatusOK || len(applied.Rejected) > 0 {
				t.Fatalf("batch %d: status %d, rejected %v", batch, code, applied.Rejected)
			}
		}
		for _, req := range requests {
			if in, ex := answer(daemons[0], req), answer(daemons[1], req); !bytes.Equal(in, ex) {
				t.Fatalf("batch %d, %v: answers differ\n in-process %s\n executor   %s", batch, req, in, ex)
			}
		}
	}
	in, ex := stats(daemons[0]), stats(daemons[1])
	if in.Live == nil || ex.Live == nil || in.Live.Repairs < 10 || in.Live.Repairs != ex.Live.Repairs {
		t.Errorf("live stats: in-process %+v, executor %+v; want equal repairs, at least 10", in.Live, ex.Live)
	}
	if !reflect.DeepEqual(in.ResidentBytes, ex.ResidentBytes) || in.ResidentBytes["columns"] == 0 {
		t.Errorf("resident bytes: in-process %v, executor %v", in.ResidentBytes, ex.ResidentBytes)
	}
}
