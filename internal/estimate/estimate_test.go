package estimate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stratified"
)

// twoGroupPop builds a population with a common group (value ≈ low) and a
// rare, very different group (value ≈ high) — the "individuals above 70 have
// unique behaviour" setting of the paper's introduction.
func twoGroupPop(nCommon, nRare int, seed int64) (*dataset.Relation, float64) {
	schema := dataset.MustSchema(
		dataset.Field{Name: "group", Min: 0, Max: 1},
		dataset.Field{Name: "activity", Min: 0, Max: 10000},
	)
	rng := rand.New(rand.NewSource(seed))
	r := dataset.NewRelation(schema)
	var sum float64
	id := int64(0)
	for i := 0; i < nCommon; i++ {
		v := int64(100 + rng.Intn(21)) // 100..120: homogeneous
		sum += float64(v)
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{0, v}})
		id++
	}
	for i := 0; i < nRare; i++ {
		v := int64(5000 + rng.Intn(1001)) // 5000..6000: rare and far away
		sum += float64(v)
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{1, v}})
		id++
	}
	return r, sum / float64(nCommon+nRare)
}

func activityValues(ts []dataset.Tuple) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = float64(t.Attrs[1])
	}
	return out
}

func TestStratifiedMeanMatchesHandComputation(t *testing.T) {
	strata := []StratumSummary{
		{PopSize: 80, Values: []float64{10, 12, 14}}, // mean 12
		{PopSize: 20, Values: []float64{100, 104}},   // mean 102
	}
	m, err := StratifiedMean(strata)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8*12 + 0.2*102
	if math.Abs(m.Estimate-want) > 1e-12 {
		t.Fatalf("estimate %g, want %g", m.Estimate, want)
	}
	if m.SampleSize != 5 {
		t.Fatalf("n = %d", m.SampleSize)
	}
	// Hand variance: W1²(1-3/80)·s1²/3 + W2²(1-2/20)·s2²/2, s1²=4, s2²=8.
	v1 := 0.64 * (1 - 3.0/80) * 4 / 3
	v2 := 0.04 * (1 - 0.1) * 8 / 2
	if math.Abs(m.StdErr-math.Sqrt(v1+v2)) > 1e-12 {
		t.Fatalf("stderr %g, want %g", m.StdErr, math.Sqrt(v1+v2))
	}
}

func TestEstimatorErrors(t *testing.T) {
	if _, err := StratifiedMean([]StratumSummary{{PopSize: 2, Values: []float64{1, 2, 3}}}); err == nil {
		t.Fatal("want oversample error")
	}
	if _, err := StratifiedMean([]StratumSummary{{PopSize: 5, Values: nil}}); err == nil {
		t.Fatal("want empty-stratum error")
	}
	if _, err := StratifiedMean(nil); err == nil {
		t.Fatal("want empty-population error")
	}
	if _, err := SRSMean(nil, 10); err == nil {
		t.Fatal("want empty-sample error")
	}
	if _, err := SRSMean([]float64{1, 2}, 1); err == nil {
		t.Fatal("want oversample error")
	}
}

// TestStratifiedBeatsSRS is the paper's Example 1 in numbers: with a rare
// heterogeneous subgroup, the stratified mean estimator at equal sample size
// has far lower error than simple random sampling — and the SRS often misses
// the subgroup entirely.
func TestStratifiedBeatsSRS(t *testing.T) {
	const n = 40
	const runs = 400
	r, truth := twoGroupPop(4900, 100, 1)
	q := query.NewSSD("groups",
		query.Stratum{Cond: predicate.MustParse("group = 0"), Freq: n - 10},
		query.Stratum{Cond: predicate.MustParse("group = 1"), Freq: 10},
	)
	rng := rand.New(rand.NewSource(2))

	var stratSE, srsSE float64 // empirical squared errors
	for run := 0; run < runs; run++ {
		ans, err := stratified.Sequential(q, r, rng)
		if err != nil {
			t.Fatal(err)
		}
		sums, err := FromAnswer(ans, r.Schema(), "activity")
		if err != nil {
			t.Fatal(err)
		}
		sm, err := StratifiedMean(sums)
		if err != nil {
			t.Fatal(err)
		}
		stratSE += (sm.Estimate - truth) * (sm.Estimate - truth)

		srs := sampling.SRS(r.Tuples(), n, rng)
		rm, err := SRSMean(activityValues(srs), int64(r.Len()))
		if err != nil {
			t.Fatal(err)
		}
		srsSE += (rm.Estimate - truth) * (rm.Estimate - truth)
	}
	if stratSE*4 > srsSE {
		t.Fatalf("stratified MSE %.1f not clearly below SRS MSE %.1f", stratSE/runs, srsSE/runs)
	}
}

// TestEstimatorsUnbiased: both estimators' empirical means converge on the
// true population mean.
func TestEstimatorsUnbiased(t *testing.T) {
	const n = 50
	const runs = 600
	r, truth := twoGroupPop(2000, 200, 3)
	q := query.NewSSD("groups",
		query.Stratum{Cond: predicate.MustParse("group = 0"), Freq: 30},
		query.Stratum{Cond: predicate.MustParse("group = 1"), Freq: 20},
	)
	rng := rand.New(rand.NewSource(4))
	var stratSum, srsSum float64
	for run := 0; run < runs; run++ {
		ans, _ := stratified.Sequential(q, r, rng)
		sums, _ := FromAnswer(ans, r.Schema(), "activity")
		sm, _ := StratifiedMean(sums)
		stratSum += sm.Estimate
		srs := sampling.SRS(r.Tuples(), n, rng)
		rm, _ := SRSMean(activityValues(srs), int64(r.Len()))
		srsSum += rm.Estimate
	}
	for name, got := range map[string]float64{"stratified": stratSum / runs, "srs": srsSum / runs} {
		if math.Abs(got-truth)/truth > 0.02 {
			t.Fatalf("%s estimator biased: %.1f vs truth %.1f", name, got, truth)
		}
	}
}

// TestStdErrCalibrated: the reported standard error predicts the empirical
// error distribution (within a factor reflecting estimation noise).
func TestStdErrCalibrated(t *testing.T) {
	const runs = 400
	r, truth := twoGroupPop(3000, 300, 5)
	q := query.NewSSD("groups",
		query.Stratum{Cond: predicate.MustParse("group = 0"), Freq: 25},
		query.Stratum{Cond: predicate.MustParse("group = 1"), Freq: 25},
	)
	rng := rand.New(rand.NewSource(6))
	var sqErr, claimed float64
	for run := 0; run < runs; run++ {
		ans, _ := stratified.Sequential(q, r, rng)
		sums, _ := FromAnswer(ans, r.Schema(), "activity")
		sm, _ := StratifiedMean(sums)
		sqErr += (sm.Estimate - truth) * (sm.Estimate - truth)
		claimed += sm.StdErr * sm.StdErr
	}
	ratio := sqErr / claimed
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("claimed variance off by %.2fx from empirical", ratio)
	}
}

func TestAllocations(t *testing.T) {
	pops := []int64{800, 150, 50}
	prop := Proportional(pops, 100)
	if sum(prop) != 100 {
		t.Fatalf("proportional sums to %d", sum(prop))
	}
	if !(prop[0] > prop[1] && prop[1] > prop[2]) {
		t.Fatalf("proportional %v not ordered by population", prop)
	}
	// Neyman shifts budget to the high-variance stratum.
	ney := Neyman(pops, []float64{1, 1, 50}, 100)
	if sum(ney) != 100 {
		t.Fatalf("neyman sums to %d", sum(ney))
	}
	if int64(ney[2]) != pops[2] { // tiny but wild stratum: take as much as exists
		t.Fatalf("neyman %v should exhaust the high-variance stratum", ney)
	}
	// Degenerate cases.
	if got := Proportional([]int64{0, 0}, 10); sum(got) != 0 {
		t.Fatalf("empty population allocation %v", got)
	}
	if got := Proportional(pops, 0); sum(got) != 0 {
		t.Fatalf("zero budget allocation %v", got)
	}
	// A non-empty stratum always gets at least one slot.
	small := Proportional([]int64{10000, 3}, 20)
	if small[1] < 1 {
		t.Fatalf("tiny stratum unrepresented: %v", small)
	}
}

func TestAllocationToSSD(t *testing.T) {
	conds := []query.Stratum{
		{Cond: predicate.MustParse("group = 0")},
		{Cond: predicate.MustParse("group = 1")},
	}
	q, err := Allocation{3, 7}.ToSSD("alloc", conds)
	if err != nil {
		t.Fatal(err)
	}
	if q.TotalFreq() != 10 || q.Strata[1].Freq != 7 {
		t.Fatalf("built %+v", q)
	}
	if _, err := (Allocation{1}).ToSSD("bad", conds); err == nil {
		t.Fatal("want arity error")
	}
}

func TestDesignEffect(t *testing.T) {
	d := DesignEffect(Mean{StdErr: 1}, Mean{StdErr: 2})
	if math.Abs(d-0.25) > 1e-12 {
		t.Fatalf("deff = %g", d)
	}
	if !math.IsInf(DesignEffect(Mean{StdErr: 1}, Mean{StdErr: 0}), 1) {
		t.Fatal("zero SRS stderr must give +Inf")
	}
}

func TestFromAnswerUnknownAttr(t *testing.T) {
	r, _ := twoGroupPop(10, 10, 7)
	q := query.NewSSD("g", query.Stratum{Cond: predicate.MustParse("group = 0"), Freq: 2})
	ans, _ := stratified.Sequential(q, r, rand.New(rand.NewSource(1)))
	if _, err := FromAnswer(ans, r.Schema(), "nope"); err == nil {
		t.Fatal("want unknown-attribute error")
	}
}

// relationCounts is the row-wise oracle for an answer's stratum sizes: one
// scan of the relation per stratum.
func relationCounts(t *testing.T, q *query.SSD, r *dataset.Relation) []int64 {
	t.Helper()
	preds, err := q.Compile(r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, len(preds))
	for k, p := range preds {
		counts[k] = int64(r.Count(p))
	}
	return counts
}

// TestFromAnswerReadsTheAnswersSizes: the populations FromAnswer weighs the
// strata by are the answer's own sizes, equal to a re-scan of the relation —
// for the sequential oracle and for MR-SQE over splits, a stratum no tuple
// satisfies included — and an answer without sizes, or with a size short of
// a stratum, is refused rather than read as empty strata.
func TestFromAnswerReadsTheAnswersSizes(t *testing.T) {
	r, _ := twoGroupPop(300, 40, 8)
	q := query.NewSSD("g",
		query.Stratum{Cond: predicate.MustParse("group = 0"), Freq: 5},
		query.Stratum{Cond: predicate.MustParse("group = 1"), Freq: 7},
		query.Stratum{Cond: predicate.MustParse("activity > 9000"), Freq: 2},
	)
	seq, err := stratified.Sequential(q, r, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	splits, err := dataset.Partition(r, 4, dataset.Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	sqe, _, err := stratified.RunSQE(mapreduce.NewCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := relationCounts(t, q, r)
	for name, ans := range map[string]*query.Answer{"sequential": seq, "MR-SQE": sqe} {
		sums, err := FromAnswer(ans, r.Schema(), "activity")
		if err != nil {
			t.Fatal(err)
		}
		for k, s := range sums {
			if s.PopSize != want[k] {
				t.Errorf("%s stratum %d: population %d, a re-scan counts %d", name, k, s.PopSize, want[k])
			}
		}
	}
	for name, sizes := range map[string][]int64{"none": nil, "short": want[:2]} {
		ans := &query.Answer{Strata: seq.Strata, Sizes: sizes}
		if _, err := FromAnswer(ans, r.Schema(), "activity"); err == nil {
			t.Errorf("%s sizes: an answer with %d sizes for %d strata was read", name, len(sizes), len(ans.Strata))
		}
	}
}

func sum(a Allocation) int {
	n := 0
	for _, v := range a {
		n += v
	}
	return n
}
