package stratified

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/sampling"
)

// splitClassifier assigns every tuple of a split to its stratum in one call,
// through the fused stage's split → class-vector step. Its scratch is reused
// across splits, so steady-state classification allocates nothing.
type splitClassifier struct {
	splitScan // of the one query
	scratch   classScan
}

func newSplitClassifier(q *query.SSD, schema *dataset.Schema) (*splitClassifier, error) {
	classes, err := classifiers([]*query.SSD{q}, schema)
	if err != nil {
		return nil, err
	}
	return &splitClassifier{splitScan: newSplitScan(classes, nil, nil, nil)}, nil
}

// classify returns one stratum index (or -1) per tuple of the split. The
// returned slice is owned by the classifier and valid until the next call.
func (sc *splitClassifier) classify(split dataset.Split) []int32 {
	return sc.splitScan.classify(&sc.scratch, 0, split, 0, len(split))[0]
}

// RunSplitLocal is the Grover & Carey (ICDE 2012) style baseline the paper
// discusses in Section 2: predicate-based sampling that reads *splits* one
// at a time — assuming each split is a random sample of the whole dataset —
// and stops as soon as every stratum has enough matching tuples. It avoids
// scanning most of the data, which is its appeal.
//
// The assumption is the catch (Laptev et al., PVLDB 2012, and Section 2 of
// the paper): when data is NOT distributed randomly — the typical case where
// machines store their own region's data — the early-read splits are not
// representative and the "sample" is biased toward whatever happens to live
// in them. SplitLocalBias in the test suite quantifies this. The returned
// SplitsRead reports how much of the data the early termination saved.
func RunSplitLocal(q *query.SSD, schema *dataset.Schema, splits []dataset.Split, seed int64) (ans *query.Answer, splitsRead int, err error) {
	sc, err := newSplitClassifier(q, schema)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(seed))
	reservoirs := make([]*sampling.Reservoir[dataset.Tuple], len(q.Strata))
	for k, s := range q.Strata {
		reservoirs[k] = sampling.NewReservoir[dataset.Tuple](s.Freq, rng)
	}
	full := func() bool {
		for k, res := range reservoirs {
			if int(res.Seen()) < q.Strata[k].Freq {
				return false
			}
		}
		return true
	}
	// Batch each split's matches per stratum so the reservoirs can consume
	// rejected runs through Algorithm L's Skip fast path instead of paying
	// one RNG draw per matching tuple.
	matched := make([][]dataset.Tuple, len(q.Strata))
	for si, split := range splits {
		for k := range matched {
			matched[k] = matched[k][:0]
		}
		for i, k := range sc.classify(split) {
			if k >= 0 {
				matched[k] = append(matched[k], split[i])
			}
		}
		for k := range matched {
			reservoirs[k].AddSlice(matched[k])
		}
		if full() {
			splitsRead = si + 1
			break
		}
		splitsRead = si + 1
	}
	ans = query.NewAnswer(len(q.Strata))
	for k, res := range reservoirs {
		ans.Strata[k] = res.TakeSample()
	}
	return ans, splitsRead, nil
}

// SplitLocalBias measures, over many runs, the worst-case deviation of any
// individual's inclusion frequency from the uniform expectation under
// RunSplitLocal, as a ratio (1 = perfectly uniform, 0 = never selected,
// 2 = selected twice as often as it should be). It is the quantitative form
// of the paper's argument against assuming randomly distributed splits.
func SplitLocalBias(q *query.SSD, schema *dataset.Schema, splits []dataset.Split, runs int) (worst float64, err error) {
	sc, err := newSplitClassifier(q, schema)
	if err != nil {
		return 0, err
	}
	counts := make(map[int64]int)
	perStratumPop := make([]int, len(q.Strata))
	for _, split := range splits {
		for _, k := range sc.classify(split) {
			if k >= 0 {
				perStratumPop[k]++
			}
		}
	}
	for run := 0; run < runs; run++ {
		ans, _, err := RunSplitLocal(q, schema, splits, int64(run))
		if err != nil {
			return 0, err
		}
		for _, stratum := range ans.Strata {
			for _, t := range stratum {
				counts[t.ID]++
			}
		}
	}
	worst = 1
	for _, split := range splits {
		for i, k := range sc.classify(split) {
			if k < 0 || perStratumPop[k] == 0 {
				continue
			}
			want := q.Strata[k].Freq
			if want > perStratumPop[k] {
				want = perStratumPop[k]
			}
			expect := float64(runs) * float64(want) / float64(perStratumPop[k])
			if expect == 0 {
				continue
			}
			ratio := float64(counts[split[i].ID]) / expect
			if d := deviation(ratio); d > deviation(worst) {
				worst = ratio
			}
		}
	}
	return worst, nil
}

func deviation(ratio float64) float64 {
	if ratio >= 1 {
		return ratio - 1
	}
	return 1 - ratio
}
