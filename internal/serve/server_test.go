package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// testDaemon wraps a Server with an httptest listener and a job-name
// recorder, so tests can assert exactly which engine jobs each scenario ran.
type testDaemon struct {
	s   *Server
	ts  *httptest.Server
	mu  sync.Mutex
	job []string
}

func newTestDaemon(t *testing.T, cfg Config) *testDaemon {
	t.Helper()
	d := &testDaemon{}
	cfg.OnMetrics = func(m mapreduce.Metrics) {
		d.mu.Lock()
		d.job = append(d.job, m.Job)
		d.mu.Unlock()
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.s = s
	d.ts = httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		d.s.BeginDrain()
		d.s.Drain()
		d.ts.Close()
	})
	return d
}

func (d *testDaemon) jobs() []string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]string(nil), d.job...)
}

// post submits a sample request and decodes the response.
func (d *testDaemon) post(t *testing.T, body map[string]any) (*sampleResponse, int) {
	t.Helper()
	raw, _ := json.Marshal(body)
	resp, err := http.Post(d.ts.URL+"/v1/sample", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, resp.StatusCode
	}
	var out sampleResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out, resp.StatusCode
}

// directSQE computes the one-shot CLI answer ("strata sample") for the query
// with matching population parameters, rendered like the daemon renders it.
func directSQE(t *testing.T, pop *dataset.Relation, spec string, slaves int, seed int64) [][]string {
	t.Helper()
	q, err := query.ParseSSD("Q", spec)
	if err != nil {
		t.Fatal(err)
	}
	splits, err := dataset.Partition(pop, dataset.DefaultSplits(slaves), dataset.Contiguous, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := stratified.RunSQE(mapreduce.NewCluster(slaves), q, pop.Schema(), splits, stratified.Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return ansIndividuals(ans)
}

// ansIndividuals renders an answer's individuals like the daemon renders them.
func ansIndividuals(ans *query.Answer) [][]string {
	out := make([][]string, len(ans.Strata))
	for k, st := range ans.Strata {
		out[k] = make([]string, len(st))
		for i, tp := range st {
			out[k][i] = tp.String()
		}
	}
	return out
}

func respIndividuals(r *sampleResponse) [][]string {
	out := make([][]string, len(r.Strata))
	for i, s := range r.Strata {
		out[i] = s.Individuals
	}
	return out
}

// TestCoalescingIdenticalQueries is the coalescing proof: k concurrent
// identical queries produce exactly one engine job, and every client's
// answer is byte-identical to the one-shot "strata sample" answer for the
// same population parameters and seed.
func TestCoalescingIdenticalQueries(t *testing.T) {
	const (
		popN   = 3000
		slaves = 4
		seed   = int64(7)
		k      = 8
		spec   = "nop >= 50 : 5 ; nop < 50 : 8"
	)
	pop := gen.Population(popN, seed)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: slaves, Layout: dataset.Contiguous,
		PartitionSeed: seed, Window: 30 * time.Second, // fired explicitly below
	})

	var wg sync.WaitGroup
	responses := make([]*sampleResponse, k)
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r, code := d.post(t, map[string]any{"query": spec, "seed": seed, "nocache": true})
			if code != http.StatusOK {
				t.Errorf("client %d: status %d", i, code)
				return
			}
			responses[i] = r
		}(i)
	}
	// Wait until all k requests attached to the collecting batch, then fire
	// it without waiting out the window.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := d.s.Stats()
		if snap.SingleFlight == k-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests attached in time", snap.SingleFlight+1, k)
		}
		time.Sleep(time.Millisecond)
	}
	d.s.batcher.flush()
	wg.Wait()

	snap := d.s.Stats()
	if snap.Passes != 1 {
		t.Fatalf("passes = %d, want exactly 1", snap.Passes)
	}
	if snap.Coalesced != k-1 {
		t.Errorf("coalesced = %d, want %d", snap.Coalesced, k-1)
	}
	if jobs := d.jobs(); len(jobs) != 1 || jobs[0] != "mr-sqe:Q" {
		t.Errorf("engine jobs = %v, want exactly [mr-sqe:Q]", jobs)
	}

	want := directSQE(t, pop, spec, slaves, seed)
	for i, r := range responses {
		if r == nil {
			continue
		}
		if got := respIndividuals(r); !reflect.DeepEqual(got, want) {
			t.Errorf("client %d answer differs from one-shot strata sample:\ngot  %v\nwant %v", i, got, want)
		}
	}
}

// TestDistinctQueriesOneMQEPass: distinct queries arriving in one window run
// as a single MR-MQE job.
func TestDistinctQueriesOneMQEPass(t *testing.T) {
	pop := gen.Population(2000, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: 30 * time.Second, MaxBatch: 3,
	})
	specs := []string{
		"nop >= 100 : 3",
		"nop >= 50 : 4",
		"ayp >= 5 : 2",
	}
	var wg sync.WaitGroup
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			if _, code := d.post(t, map[string]any{"name": fmt.Sprintf("Q%d", i), "query": spec}); code != http.StatusOK {
				t.Errorf("query %d: status %d", i, code)
			}
		}(i, spec)
	}
	// MaxBatch=3 fires the batch as the third distinct query arrives.
	wg.Wait()

	snap := d.s.Stats()
	if snap.Passes != 1 {
		t.Fatalf("passes = %d, want 1", snap.Passes)
	}
	if snap.PassQueries != 3 {
		t.Errorf("pass queries = %d, want 3", snap.PassQueries)
	}
	if snap.BatchMax != 3 {
		t.Errorf("batch occupancy max = %d, want 3", snap.BatchMax)
	}
	if jobs := d.jobs(); len(jobs) != 1 || jobs[0] != "mr-mqe" {
		t.Errorf("engine jobs = %v, want exactly [mr-mqe]", jobs)
	}
}

// TestCacheSharedAcrossTextualVariants: two textually different but
// semantically identical queries share one cache entry, and an epoch bump
// invalidates it.
func TestCacheSharedAcrossTextualVariants(t *testing.T) {
	pop := gen.Population(1500, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: 0, // one pass per query
	})

	r1, code := d.post(t, map[string]any{"query": "nop >= 100 : 5"})
	if code != http.StatusOK {
		t.Fatalf("first: status %d", code)
	}
	if r1.Cached {
		t.Error("first answer claims cached")
	}

	// Semantically identical, textually different.
	r2, code := d.post(t, map[string]any{"query": "not (nop < 100) : 5"})
	if code != http.StatusOK {
		t.Fatalf("variant: status %d", code)
	}
	if !r2.Cached {
		t.Error("semantically identical variant missed the cache")
	}
	if !reflect.DeepEqual(respIndividuals(r1), respIndividuals(r2)) {
		t.Error("cached variant answer differs from original")
	}
	if snap := d.s.Stats(); snap.Passes != 1 {
		t.Errorf("passes = %d, want 1 (variant must not recompute)", snap.Passes)
	}

	// Epoch bump invalidates: same query recomputes under the new epoch.
	resp, err := http.Post(d.ts.URL+"/v1/epoch", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	r3, code := d.post(t, map[string]any{"query": "nop >= 100 : 5"})
	if code != http.StatusOK {
		t.Fatalf("post-bump: status %d", code)
	}
	if r3.Cached {
		t.Error("post-bump answer served from stale cache")
	}
	if r3.Epoch != 2 {
		t.Errorf("post-bump epoch = %d, want 2", r3.Epoch)
	}
	if snap := d.s.Stats(); snap.Passes != 2 {
		t.Errorf("passes = %d, want 2 after epoch bump", snap.Passes)
	}
}

// TestCacheKeyIncludesSeed: same query text, different seed → different
// entry (and different sample).
func TestCacheKeyIncludesSeed(t *testing.T) {
	pop := gen.Population(1500, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1, Window: 0,
	})
	r1, _ := d.post(t, map[string]any{"query": "nop >= 30 : 5", "seed": 1})
	r2, _ := d.post(t, map[string]any{"query": "nop >= 30 : 5", "seed": 2})
	if r2.Cached {
		t.Error("different seed hit the cache")
	}
	if reflect.DeepEqual(respIndividuals(r1), respIndividuals(r2)) {
		t.Error("different seeds produced identical samples (suspicious)")
	}
}

func TestQuotaRejectsOverBudgetTenant(t *testing.T) {
	pop := gen.Population(800, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1,
		Window: 0, QuotaQPS: 0.0001, QuotaBurst: 1, // one token, negligible refill
	})
	do := func(tenant string) int {
		raw, _ := json.Marshal(map[string]any{"query": "nop >= 30 : 2"})
		req, _ := http.NewRequest(http.MethodPost, d.ts.URL+"/v1/sample", bytes.NewReader(raw))
		req.Header.Set("X-Strata-Tenant", tenant)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := do("alice"); code != http.StatusOK {
		t.Fatalf("first alice query: status %d", code)
	}
	if code := do("alice"); code != http.StatusTooManyRequests {
		t.Fatalf("second alice query: status %d, want 429", code)
	}
	// Independent tenant has its own bucket.
	if code := do("bob"); code != http.StatusOK {
		t.Fatalf("first bob query: status %d", code)
	}
	snap := d.s.Stats()
	if snap.Rejected["alice"] != 1 {
		t.Errorf("rejected[alice] = %d, want 1", snap.Rejected["alice"])
	}
}

// TestOneRoutePerAnswer: an answer is the blocking reply to POST /v1/sample
// and a push is read by long-poll on /v1/next, so the async ticket route and
// the event stream answer 404; a body naming a field the daemon does not
// read — "wait" included — is a 400 on /v1/sample and /v1/subscribe, and
// none of these requests counts a query, buys a pass or registers a
// standing query.
func TestOneRoutePerAnswer(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(200), Slaves: 2, Layout: dataset.RoundRobin,
		Window: 0, Live: true,
	})
	if _, code := d.post(t, map[string]any{"query": "gender = 1 : 2"}); code != http.StatusOK {
		t.Fatalf("sample: status %d", code)
	}
	before, queriesBefore := d.s.Stats(), d.s.pop.Stats().Queries

	for _, path := range []string{"/v1/result?id=x", "/v1/stream?id=x"} {
		resp, err := http.Get(d.ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
	for _, path := range []string{"/v1/sample", "/v1/subscribe"} {
		for _, body := range []map[string]any{
			{"query": "gender = 0 : 2", "wait": false},
			{"query": "gender = 0 : 2", "sede": 7},
		} {
			if code := d.postJSON(t, path, body, nil); code != http.StatusBadRequest {
				t.Errorf("POST %s %v: status %d, want 400", path, body, code)
			}
		}
	}

	after := d.s.Stats()
	if after.Queries != before.Queries || after.Passes != before.Passes || after.Subscriptions != 0 {
		t.Errorf("refused requests moved the counters: queries %d -> %d, passes %d -> %d, subscriptions %d",
			before.Queries, after.Queries, before.Passes, after.Passes, after.Subscriptions)
	}
	if q := d.s.pop.Stats().Queries; q != queriesBefore {
		t.Errorf("refused subscriptions registered standing queries: %d -> %d", queriesBefore, q)
	}
}

func TestDrainRejectsNewQueries(t *testing.T) {
	pop := gen.Population(500, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1, Window: 0,
	})
	d.s.BeginDrain()
	d.s.Drain()
	if _, code := d.post(t, map[string]any{"query": "nop >= 30 : 2"}); code != http.StatusServiceUnavailable {
		t.Errorf("post-drain submit: status %d, want 503", code)
	}
}

func TestRejectsInvalidQueries(t *testing.T) {
	pop := gen.Population(500, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1, Window: 0,
	})
	for _, body := range []map[string]any{
		{"query": "broken ::"},
		{"query": "nop < 10 : 1 ; nop < 20 : 1"}, // overlapping strata
		{},                                       // no query at all
		{"query": "nop >= 1 : 1", "strata": []map[string]any{{"cond": "nop >= 1", "freq": 1}}}, // both forms
		{"query": pastCellCap},
	} {
		raw, _ := json.Marshal(body)
		resp, err := http.Post(d.ts.URL+"/v1/sample", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		var msg map[string]string
		json.NewDecoder(resp.Body).Decode(&msg)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %v: status %d, want 400", body, resp.StatusCode)
		}
		if body["query"] == pastCellCap && !strings.Contains(msg["error"], "130321 cells") {
			t.Errorf("past the cell cap: error %q, want the cell count", msg["error"])
		}
	}
}

// pastCellCap is a valid-looking query past the lowering's cell cap: nine
// boxes on four attributes of the author schema, no bound shared, cut each
// attribute 18 times — 19⁴ = 130 321 cells.
var pastCellCap = func() string {
	var strata []string
	for k := 0; k < 9; k++ {
		strata = append(strata, fmt.Sprintf(
			"nop >= %d and nop <= %d and cc >= %d and cc <= %d and ndcc >= %d and ndcc <= %d and myp >= %d and myp <= %d : 1",
			10+70*k, 40+70*k, 10+100*k, 60+100*k, 10+200*k, 110+200*k, 2+15*k, 10+15*k))
	}
	return strings.Join(strata, " ; ")
}()

// TestStructuredStrataForm: the JSON strata form is accepted and matches the
// text form's cache entry.
func TestStructuredStrataForm(t *testing.T) {
	pop := gen.Population(1000, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1, Window: 0,
	})
	r1, code := d.post(t, map[string]any{"query": "nop >= 100 : 4"})
	if code != http.StatusOK {
		t.Fatalf("text form: status %d", code)
	}
	r2, code := d.post(t, map[string]any{
		"strata": []map[string]any{{"cond": "nop >= 100", "freq": 4}},
	})
	if code != http.StatusOK {
		t.Fatalf("strata form: status %d", code)
	}
	if !r2.Cached {
		t.Error("structured form missed the cache entry of the identical text form")
	}
	if !reflect.DeepEqual(respIndividuals(r1), respIndividuals(r2)) {
		t.Error("structured form answer differs")
	}
}

// TestStrataFormMatchesTextForm: the structured form parses each cond into
// the query the text form gives — the same canonical key and the same answer
// — and a cond that does not parse is refused with the error body the
// daemon has always sent.
func TestStrataFormMatchesTextForm(t *testing.T) {
	pop := gen.Population(1000, 1)
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 2, Layout: dataset.Contiguous, PartitionSeed: 1, Window: 0,
	})
	text := map[string]any{"query": "nop >= 100 and ayp < 5 : 4 ; nop < 100 : 6", "seed": 3, "nocache": true}
	structured := map[string]any{"strata": []map[string]any{
		{"cond": "nop >= 100 and ayp < 5", "freq": 4},
		{"cond": "nop < 100", "freq": 6},
	}, "seed": 3, "nocache": true}

	var keys []string
	for _, body := range []map[string]any{text, structured} {
		raw, _ := json.Marshal(body)
		var req sampleRequest
		if err := json.Unmarshal(raw, &req); err != nil {
			t.Fatal(err)
		}
		q, cls, err := d.s.buildQuery(&req)
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, canonicalSSD(q, cls))
	}
	if keys[0] != keys[1] {
		t.Errorf("canonical keys differ:\n text   %q\n strata %q", keys[0], keys[1])
	}
	r1, code1 := d.post(t, text)
	r2, code2 := d.post(t, structured)
	if code1 != http.StatusOK || code2 != http.StatusOK {
		t.Fatalf("status %d (text), %d (strata)", code1, code2)
	}
	if !reflect.DeepEqual(r1.Strata, r2.Strata) {
		t.Errorf("answers differ:\n text   %+v\n strata %+v", r1.Strata, r2.Strata)
	}

	for body, want := range map[string]string{
		`{"strata":[{"cond":"nop >= 100","freq":4},{"cond":"nop <","freq":6}]}`: `{"error":"query Q stratum 1: predicate: expected integer after \"nop\" \u003c"}` + "\n",
		`{"strata":[{"cond":"nop >= 100 and","freq":4}]}`:                       `{"error":"query Q stratum 0: predicate: unexpected end of input"}` + "\n",
		`{"name":"N","strata":[{"cond":"zzz = 1","freq":4}]}`:                   `{"error":"query N: predicate: formula 0: unknown attribute \"zzz\""}` + "\n",
	} {
		resp, err := http.Post(d.ts.URL+"/v1/sample", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		got.ReadFrom(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || got.String() != want {
			t.Errorf("%s: %d %q, want 400 %q", body, resp.StatusCode, got.String(), want)
		}
	}
}

// TestHealthzSplitsFollowRebalance: /healthz reads the split count from the
// population, so after a live epoch bump re-cuts a shrunken population into
// fewer splits than -splits it reports the splits that exist.
func TestHealthzSplitsFollowRebalance(t *testing.T) {
	d := newTestDaemon(t, Config{
		Population: livePopulation(20), Slaves: 2, Splits: 8, Layout: dataset.RoundRobin,
		Window: 0, Live: true,
	})
	healthz := func() (population, splits int) {
		t.Helper()
		resp, err := http.Get(d.ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz struct {
			Population int `json:"population"`
			Splits     int `json:"splits"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		return hz.Population, hz.Splits
	}
	if pop, splits := healthz(); pop != 20 || splits != 8 {
		t.Fatalf("at start: population %d in %d splits, want 20 in 8", pop, splits)
	}
	var muts []map[string]any
	for id := 0; id < 16; id++ {
		muts = append(muts, map[string]any{"op": "delete", "id": id})
	}
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": muts}, nil); code != http.StatusOK {
		t.Fatalf("mutate: status %d", code)
	}
	if code := d.postJSON(t, "/v1/epoch", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("epoch: status %d", code)
	}
	if pop, splits := healthz(); pop != 4 || splits != 4 {
		t.Errorf("after the re-cut: population %d in %d splits, want 4 in 4", pop, splits)
	}
}

// executorCluster is a cluster whose map tasks travel as serialized specs, as
// they do to remote workers, but execute in this process.
func executorCluster(slaves int) *mapreduce.Cluster {
	c := mapreduce.NewCluster(slaves)
	c.Executor = stratified.Inproc
	return c
}

// TestResidentBytesReported: /v1/stats and /metrics say what the resident
// population costs in each layout — the rows, and the column mirror the
// stratum scan reads with the wire-size column the shuffle counter reads.
// Every daemon keeps both, static or live, whether its tasks run in this
// process or travel to an Executor.
func TestResidentBytesReported(t *testing.T) {
	pop := gen.Population(500, 3)
	var rows int64
	for _, tp := range pop.Tuples() {
		rows += tp.ResidentBytes()
	}
	mirror := int64(500 * (pop.Schema().NumFields() + 1) * 4)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"inproc", Config{}},
		{"inproc live", Config{Live: true}},
		{"executor", Config{NewCluster: executorCluster}},
		{"executor live", Config{NewCluster: executorCluster, Live: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Population, tc.cfg.Slaves, tc.cfg.Layout = pop, 2, dataset.Contiguous
			d := newTestDaemon(t, tc.cfg)
			resp, err := http.Get(d.ts.URL + "/v1/stats")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var snap Snapshot
			if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
				t.Fatal(err)
			}
			if got := snap.ResidentBytes; got["rows"] != rows || got["columns"] != mirror {
				t.Errorf("/v1/stats resident_bytes = %v, want rows %d columns %d", got, rows, mirror)
			}

			resp, err = http.Get(d.ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			for _, want := range []string{
				fmt.Sprintf("strata_serve_resident_bytes{layout=\"rows\"} %d\n", rows),
				fmt.Sprintf("strata_serve_resident_bytes{layout=\"columns\"} %d\n", mirror),
			} {
				if !bytes.Contains(buf.Bytes(), []byte(want)) {
					t.Errorf("/metrics missing %q", want)
				}
			}
		})
	}
}
