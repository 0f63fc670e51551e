package serve

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/predicate"
	"repro/internal/query"
)

// lineRelation builds a population whose single attribute x equals the tuple
// index, so a contiguous partition gives each split a narrow bounding box —
// the friendly case for box pre-filtering.
func lineRelation(t *testing.T, n int) *dataset.Relation {
	t.Helper()
	schema := dataset.MustSchema(dataset.Field{Name: "x", Min: 0, Max: int64(n - 1), Desc: "index"})
	rel := dataset.NewRelation(schema)
	for i := 0; i < n; i++ {
		rel.MustAdd(dataset.Tuple{ID: int64(i), Attrs: []int64{int64(i)}})
	}
	return rel
}

func TestPruneSkipsIrrelevantSplits(t *testing.T) {
	rel := lineRelation(t, 100)
	schema := rel.Schema()
	splits, err := dataset.Partition(rel, 10, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	bounds := boundsOf(splits, schema)

	q, err := query.ParseSSD("Q", "x >= 90 : 5")
	if err != nil {
		t.Fatal(err)
	}
	cls, err := q.ValidClassifier(schema)
	if err != nil {
		t.Fatal(err)
	}
	pruned, n := pruneSplits(splits, bounds, []*predicate.Classifier{cls})
	if n != 9 {
		t.Fatalf("pruned %d splits, want 9 (only x∈[90,99] is relevant)", n)
	}
	if pruned[9] == nil || len(pruned[9]) != 10 {
		t.Fatal("the relevant split was pruned")
	}
	for i := 0; i < 9; i++ {
		if pruned[i] != nil {
			t.Errorf("split %d should be pruned", i)
		}
	}
	if len(pruned) != len(splits) {
		t.Errorf("pruning changed the split count: %d vs %d (must be index-preserving)", len(pruned), len(splits))
	}
}

// TestPrunePreservesAnswerBytes: a daemon that prunes returns exactly the
// sample a direct MR-SQE over the same, unpruned splits draws, because
// pruning is index-preserving and only drops splits that cannot contribute.
func TestPrunePreservesAnswerBytes(t *testing.T) {
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
	if d.s.Stats().PrunedSplits == 0 {
		t.Error("no splits pruned on a contiguous line population")
	}
	if want := directSQE(t, rel, spec, 5, 3); !reflect.DeepEqual(respIndividuals(r), want) {
		t.Errorf("pruned answer differs from unpruned:\npruned   %v\nunpruned %v", respIndividuals(r), want)
	}
}

// TestPruneAgainstAuthorPopulation: pruning must never change answers on the
// realistic population either, where bounding boxes are wide and little or
// nothing is prunable.
func TestPruneAgainstAuthorPopulation(t *testing.T) {
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
		t.Error("pruned answer differs from unpruned on the author population")
	}
}
