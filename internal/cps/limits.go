package cps

import (
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

// CountLimitsInMemory fills the Limit of every wanted selection by a direct
// sequential scan of the relation — the single-machine oracle for the
// MapReduce pass below, used by tests and the pure-CPS path.
func CountLimitsInMemory(r *dataset.Relation, compiled [][]predicate.Pred, wanted map[string]*SelEntry) (int64, error) {
	var matched int64
	tuples := r.Tuples()
	for i := range tuples {
		sel := SelectionOf(&tuples[i], compiled)
		if sel.Empty() {
			continue
		}
		if e, ok := wanted[sel.Key()]; ok {
			e.Limit++
			matched++
		}
	}
	return matched, nil
}

// CountLimits runs the MapReduce program of Figure 4 to obtain L(σ) for the
// relevant selections: the selection-sampling job drawing nothing. The fused
// scan's per-query classes of a tuple are its σ(t); map tasks count the ones
// in [[Q]]*, and the reducer's summed N of each is its limit. Excluded
// individuals do not count (the plan must not rely on the unsamplable).
func CountLimits(c *mapreduce.Cluster, queries []*query.SSD, schema *dataset.Schema, stats *Stats, splits []dataset.Split, seed int64, exclude map[int64]struct{}) (mapreduce.Metrics, error) {
	keys := stats.SortedKeys()
	counted, met, err := stratified.SampleSelections(c, queries, schema, splits, stats.selections(keys), nil, nil, exclude, seed)
	if err != nil {
		return mapreduce.Metrics{}, err
	}
	for j, key := range keys {
		stats.Entries[key].Limit = counted[0].Sizes[j]
	}
	return met, nil
}
