package serve

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/live"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// lineRelation builds a population whose single attribute x equals the tuple
// index, so under a contiguous partition a selective query's members sit in
// a few splits and every other split contributes nothing.
func lineRelation(t *testing.T, n int) *dataset.Relation {
	t.Helper()
	schema := dataset.MustSchema(dataset.Field{Name: "x", Min: 0, Max: int64(n - 1), Desc: "index"})
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		rel.MustAdd(dataset.Tuple{ID: int64(i), Attrs: []int64{int64(i)}})
	}
	return rel
}

// TestSelectiveQueryMatchesDirectPass: for a query whose strata hold in a few
// splits only, the daemon returns exactly the sample a direct MR-SQE over the
// same splits draws.
func TestSelectiveQueryMatchesDirectPass(t *testing.T) {
	rel := lineRelation(t, 200)
	const spec = "x >= 150 : 7 ; x < 20 : 4"
	d := newTestDaemon(t, Config{
		Population: rel, Slaves: 5, Layout: dataset.Contiguous,
		PartitionSeed: 3, Window: 0,
	})
	r, code := d.post(t, map[string]any{"query": spec, "seed": 3})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if want := directSQE(t, rel, spec, 5, 3); !reflect.DeepEqual(respIndividuals(r), want) {
		t.Errorf("daemon answer differs from a direct pass:\ndaemon %v\ndirect %v", respIndividuals(r), want)
	}
}

// TestAuthorPopulationMatchesDirectPass: the daemon's answer on the
// realistic population is the sample a direct MR-SQE draws.
func TestAuthorPopulationMatchesDirectPass(t *testing.T) {
	pop := gen.Population(1200, 1)
	const spec = "nop >= 100 : 5 ; nop < 100 : 10"
	d := newTestDaemon(t, Config{
		Population: pop, Slaves: 3, Layout: dataset.Contiguous,
		PartitionSeed: 1, Window: time.Millisecond,
	})
	r, code := d.post(t, map[string]any{"query": spec, "seed": 1})
	if code != 200 {
		t.Fatalf("status %d", code)
	}
	if !reflect.DeepEqual(respIndividuals(r), directSQE(t, pop, spec, 3, 1)) {
		t.Error("daemon answer differs from a direct pass on the author population")
	}
}

// TestLivePassesMatchDirectPass: a live daemon's answers — at load, after
// inserts, updates and deletes, and after the epoch bump's re-cut — are the
// bytes a direct MR-SQE over the population's current splits draws.
func TestLivePassesMatchDirectPass(t *testing.T) {
	rel := lineRelation(t, 200)
	const spec = "x >= 150 : 7 ; x < 20 : 4"
	d := newTestDaemon(t, Config{
		Population: rel, Slaves: 5, Splits: 10, Layout: dataset.Contiguous,
		PartitionSeed: 3, Window: 0, Live: true,
	})
	q, err := query.ParseSSD("Q", spec)
	if err != nil {
		t.Fatal(err)
	}
	// check asks once and fails unless the pass drew what a direct pass over
	// the current splits draws.
	check := func(when string) {
		t.Helper()
		r, code := d.post(t, map[string]any{"query": spec, "seed": 3, "nocache": true})
		if code != http.StatusOK {
			t.Fatalf("%s: status %d", when, code)
		}
		blocks, release := d.s.pop.Acquire()
		splits := make([]dataset.Split, len(blocks))
		for i, b := range blocks {
			splits[i] = b.Rows
		}
		ans, _, err := stratified.RunSQE(mapreduce.NewCluster(5), q, rel.Schema(), splits, stratified.Options{Seed: 3})
		release()
		if err != nil {
			t.Fatal(err)
		}
		if want := ansIndividuals(ans); !reflect.DeepEqual(respIndividuals(r), want) {
			t.Errorf("%s: daemon answer differs from a direct pass:\ndaemon %v\ndirect %v", when, respIndividuals(r), want)
		}
	}
	check("at load")

	// Most inserts and updates stay between the strata, so splits that held
	// only middle values contribute nothing still. Two middle members move
	// into a stratum and one insert lands in one (round robin puts the sixth
	// insert in split 5, x ∈ [100, 120)), so their splits now contribute;
	// deletes take members from everywhere.
	muts := []map[string]any{
		{"op": "update", "id": 130, "attrs": []int64{199}},
		{"op": "update", "id": 50, "attrs": []int64{0}},
	}
	for i := int64(0); i < 30; i++ {
		x := 20 + i*37%130
		if i == 5 {
			x = 160
		}
		muts = append(muts,
			map[string]any{"op": "insert", "id": 1000 + i, "attrs": []int64{x}},
			map[string]any{"op": "update", "id": i * 6, "attrs": []int64{20 + i*13%130}},
			map[string]any{"op": "delete", "id": 1 + i*6},
		)
	}
	var applied live.Applied
	if code := d.postJSON(t, "/v1/mutate", map[string]any{"mutations": muts}, &applied); code != http.StatusOK || len(applied.Rejected) > 0 {
		t.Fatalf("mutate: status %d, rejected %v", code, applied.Rejected)
	}
	check("after mutations")
	if code := d.postJSON(t, "/v1/epoch", map[string]any{}, nil); code != http.StatusOK {
		t.Fatalf("epoch: status %d", code)
	}
	check("after the re-cut")
}

// TestStaticAndLiveDaemonsAnswerAlike: a static daemon and a live one that
// was never mutated serve from the same population, so they return the same
// strata for the same queries and seeds.
func TestStaticAndLiveDaemonsAnswerAlike(t *testing.T) {
	pop := gen.Population(2000, 4)
	specs := []string{"nop >= 100 : 5 ; nop < 100 : 8", "ayp >= 5 : 3", "nop < 30 and ayp >= 2 : 4 ; nop >= 300 : 2"}
	answers := func(mutable bool) [][]stratumResult {
		d := newTestDaemon(t, Config{
			Population: pop, Slaves: 3, Layout: dataset.Contiguous,
			PartitionSeed: 4, Window: 0, Live: mutable,
		})
		var out [][]stratumResult
		for _, seed := range []int64{1, 9} {
			for _, spec := range specs {
				r, code := d.post(t, map[string]any{"query": spec, "seed": seed})
				if code != http.StatusOK {
					t.Fatalf("live=%v %q seed %d: status %d", mutable, spec, seed, code)
				}
				out = append(out, r.Strata)
			}
		}
		return out
	}
	if static, live := answers(false), answers(true); !reflect.DeepEqual(static, live) {
		t.Errorf("live daemon answers differ from static:\nstatic %+v\nlive   %+v", static, live)
	}
}
