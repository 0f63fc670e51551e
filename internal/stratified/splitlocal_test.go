package stratified

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// The split-local sampler lives here, not in the package API: nothing serves
// it. It is the deliberately wrong baseline these tests grade — the fixture
// ROADMAP item 8's sampler zoo starts from.

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
	return &splitClassifier{splitScan: newSplitScan(classes, nil, nil)}, nil
}

// classify returns one stratum index (or -1) per tuple of the split. The
// returned slice is owned by the classifier and valid until the next call.
func (sc *splitClassifier) classify(split dataset.Split) []int32 {
	return sc.splitScan.classify(&sc.scratch, dataset.Block{Rows: split}, 0, len(split))[0]
}

// runSplitLocal is the Grover & Carey (ICDE 2012) style baseline the paper
// discusses in Section 2: predicate-based sampling that reads *splits* one
// at a time — assuming each split is a random sample of the whole dataset —
// and stops as soon as every stratum has enough matching tuples. It avoids
// scanning most of the data, which is its appeal.
//
// The assumption is the catch (Laptev et al., PVLDB 2012, and Section 2 of
// the paper): when data is NOT distributed randomly — the typical case where
// machines store their own region's data — the early-read splits are not
// representative and the "sample" is biased toward whatever happens to live
// in them. splitLocalBias quantifies this. The returned
// SplitsRead reports how much of the data the early termination saved.
func runSplitLocal(q *query.SSD, schema *dataset.Schema, splits []dataset.Split, seed int64) (ans *query.Answer, splitsRead int, err error) {
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

// splitLocalBias measures, over many runs, the worst-case deviation of any
// individual's inclusion frequency from the uniform expectation under
// runSplitLocal, as a ratio (1 = perfectly uniform, 0 = never selected,
// 2 = selected twice as often as it should be). It is the quantitative form
// of the paper's argument against assuming randomly distributed splits.
func splitLocalBias(q *query.SSD, schema *dataset.Schema, splits []dataset.Split, runs int) (worst float64, err error) {
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
		ans, _, err := runSplitLocal(q, schema, splits, int64(run))
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

func TestSplitLocalStopsEarly(t *testing.T) {
	r := genderPop(500, 500)
	splits, _ := dataset.Partition(r, 10, dataset.RoundRobin, nil)
	q := genderSSD(5, 5)
	ans, splitsRead, err := runSplitLocal(q, r.Schema(), splits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if splitsRead >= 10 {
		t.Fatalf("read all %d splits; early termination failed", splitsRead)
	}
	if len(ans.Strata[0]) != 5 || len(ans.Strata[1]) != 5 {
		t.Fatalf("sample sizes %d/%d", len(ans.Strata[0]), len(ans.Strata[1]))
	}
}

func TestSplitLocalReadsEverythingWhenScarce(t *testing.T) {
	r := genderPop(3, 100) // 3 men, freq wants 5
	splits, _ := dataset.Partition(r, 5, dataset.RoundRobin, nil)
	q := genderSSD(5, 2)
	ans, splitsRead, err := runSplitLocal(q, r.Schema(), splits, 1)
	if err != nil {
		t.Fatal(err)
	}
	if splitsRead != 5 {
		t.Fatalf("read %d splits; scarcity forces a full scan", splitsRead)
	}
	if len(ans.Strata[0]) != 3 {
		t.Fatalf("men stratum has %d, want all 3", len(ans.Strata[0]))
	}
}

// TestSplitLocalBiasedOnContiguousLayout quantifies the Section 2 critique:
// on locality-correlated (contiguous) splits, split-local sampling is badly
// biased; on randomly shuffled splits — the Grover & Carey assumption — the
// same algorithm is fine.
func TestSplitLocalBiasedOnContiguousLayout(t *testing.T) {
	const runs = 400
	r := genderPop(400, 0)
	q := genderSSD(8, 0)

	contiguous, err := dataset.Partition(r, 8, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	worstContig, err := splitLocalBias(q, r.Schema(), contiguous, runs)
	if err != nil {
		t.Fatal(err)
	}
	// With 8 equal splits and early termination after the first, late
	// splits should essentially never be sampled: worst ratio ≈ 0.
	if dev := deviation(worstContig); dev < 0.8 {
		t.Fatalf("contiguous layout bias only %.2f; expected near-total exclusion of late splits", dev)
	}

	// Under the Grover & Carey assumption the *layout itself* is random:
	// re-shuffle the data across splits before every run. Then inclusion
	// is uniform over individuals even with early termination.
	rng := rand.New(rand.NewSource(5))
	counts := make([]int64, 400)
	for run := 0; run < 2000; run++ {
		shuffled, err := dataset.Partition(r, 8, dataset.ShuffledContiguous, rng)
		if err != nil {
			t.Fatal(err)
		}
		ans, _, err := runSplitLocal(q, r.Schema(), shuffled, int64(run))
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range ans.Strata[0] {
			counts[tp.ID]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("split-local biased even on per-run random layouts: p = %g", p)
	}
}

// TestMRSQEUnbiasedWhereSplitLocalFails closes the loop: on the exact layout
// that breaks split-local sampling, MR-SQE stays uniform (already verified
// statistically elsewhere; here we only check it samples across all splits).
func TestMRSQEUnbiasedWhereSplitLocalFails(t *testing.T) {
	r := genderPop(400, 0)
	splits, _ := dataset.Partition(r, 8, dataset.Contiguous, nil)
	q := genderSSD(8, 0)
	seenLate := false
	for run := 0; run < 50 && !seenLate; run++ {
		ans, _, err := RunSQE(zeroCluster(8), q, r.Schema(), splits, Options{Seed: int64(run)})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range ans.Strata[0] {
			if tp.ID >= 350 { // last split
				seenLate = true
			}
		}
	}
	if !seenLate {
		t.Fatal("MR-SQE never sampled the last split in 50 runs")
	}
}
