package stratified

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stats"
)

func incomeSSD(fLow, fHigh int) *query.SSD {
	return query.NewSSD("income",
		query.Stratum{Cond: predicate.MustParse("income < 500"), Freq: fLow},
		query.Stratum{Cond: predicate.MustParse("income >= 500"), Freq: fHigh},
	)
}

func TestMQEAnswersAllQueries(t *testing.T) {
	r := genderPop(50, 50)
	splits, _ := dataset.Partition(r, 4, dataset.RoundRobin, nil)
	queries := []*query.SSD{genderSSD(5, 6), incomeSSD(4, 3)}
	answers, met, err := RunMQE(zeroCluster(4), queries, r.Schema(), splits, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(answers) != 2 {
		t.Fatalf("got %d answers", len(answers))
	}
	for qi, q := range queries {
		if err := answers[qi].Satisfies(q, r); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
	}
	// One pass over the data regardless of the number of queries.
	if met.MapInputRecords != 100 {
		t.Fatalf("map input %d, want 100 (single pass)", met.MapInputRecords)
	}
}

func TestMQEEquivalentToSeparateSQEs(t *testing.T) {
	// Semantically, MR-MQE must satisfy each query exactly as MR-SQE does.
	r := genderPop(40, 60)
	splits, _ := dataset.Partition(r, 3, dataset.Contiguous, nil)
	queries := []*query.SSD{genderSSD(3, 4), incomeSSD(5, 2)}
	answers, _, err := RunMQE(zeroCluster(3), queries, r.Schema(), splits, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		single, _, err := RunSQE(zeroCluster(3), q, r.Schema(), splits, Options{Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		if answers[qi].Size() != single.Size() {
			t.Fatalf("query %d: MQE size %d vs SQE size %d", qi, answers[qi].Size(), single.Size())
		}
	}
}

func TestMQENoQueries(t *testing.T) {
	if _, _, err := RunMQE(zeroCluster(1), nil, testSchema(), nil, Options{}); err == nil {
		t.Fatal("want error for empty query set")
	}
}

// TestMQEIndependentAcrossQueries: selections for different queries are
// independent — sharing is incidental, not systematic. The average overlap
// of two full-population samples of size k from N is k²/N.
func TestMQEIndependentAcrossQueries(t *testing.T) {
	const runs = 1500
	const nPop = 40
	r := genderPop(nPop, 0)
	splits, _ := dataset.Partition(r, 2, dataset.RoundRobin, nil)
	q1 := query.NewSSD("q1", query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 8})
	q2 := query.NewSSD("q2", query.Stratum{Cond: predicate.MustParse("income >= 0"), Freq: 8})
	var overlap int64
	for run := 0; run < runs; run++ {
		answers, _, err := RunMQE(zeroCluster(2), []*query.SSD{q1, q2}, r.Schema(), splits, Options{Seed: int64(run)})
		if err != nil {
			t.Fatal(err)
		}
		in1 := map[int64]bool{}
		for _, tp := range answers[0].Union() {
			in1[tp.ID] = true
		}
		for _, tp := range answers[1].Union() {
			if in1[tp.ID] {
				overlap++
			}
		}
	}
	mean := float64(overlap) / runs
	want := 64.0 / float64(nPop) // k²/N = 1.6
	if mean < want*0.8 || mean > want*1.2 {
		t.Fatalf("mean overlap %.3f, want ≈ %.3f (independence)", mean, want)
	}
}

// TestMQEUniformPerQuery: within one MQE run over skewed splits, each
// query's sample is still unbiased.
func TestMQEUniformPerQuery(t *testing.T) {
	const runs = 3000
	r := genderPop(36, 0)
	all := r.Tuples()
	splits := []dataset.Split{
		append(dataset.Split(nil), all[:3]...),
		append(dataset.Split(nil), all[3:]...),
	}
	queries := []*query.SSD{genderSSD(6, 0)}
	counts := make([]int64, 36)
	for run := 0; run < runs; run++ {
		answers, _, err := RunMQE(zeroCluster(2), queries, r.Schema(), splits, Options{Seed: int64(run) + 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range answers[0].Strata[0] {
			counts[tp.ID]++
		}
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("MQE biased: p = %g", p)
	}
}

// TestSampleSelectionsBasics: a derived sampling pass fills every wanted
// selection exactly, drops a listed selection without a frequency, and never
// samples a tuple into a selection that is not its σ(t).
func TestSampleSelectionsBasics(t *testing.T) {
	r := genderPop(30, 30) // income = id: men 0..29, women 30..59
	splits, _ := dataset.Partition(r, 3, dataset.RoundRobin, nil)
	queries := []*query.SSD{
		genderSSD(1, 1),
		query.NewSSD("young", query.Stratum{Cond: predicate.MustParse("income < 20"), Freq: 1}),
	}
	youngMen, otherMen, women := []int{0, 0}, []int{0, -1}, []int{1, -1}
	out, _, err := SampleSelections(zeroCluster(3), queries, r.Schema(), splits,
		[][]int{youngMen, otherMen, women}, [][]int{{4, 0, 7}}, nil, nil, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || len(out[0][0]) != 4 || len(out[0][2]) != 7 {
		t.Fatalf("sizes: young men %d, women %d", len(out[0][0]), len(out[0][2]))
	}
	if out[0][1] != nil {
		t.Fatal("selection without a frequency must be dropped")
	}
	for _, tp := range out[0][0] {
		if tp.Attrs[0] != 1 || tp.Attrs[1] >= 20 {
			t.Fatalf("misclassified tuple %v sampled among the young men", tp)
		}
	}
	for _, tp := range out[0][2] {
		if tp.Attrs[0] != 0 {
			t.Fatalf("misclassified tuple %v sampled among the women", tp)
		}
	}
}

// TestCountStrataMatchesRelationCount: counting a query's own strata — each the
// one-query selection naming it — over a skewed layout returns the relation's
// counts.
func TestCountStrataMatchesRelationCount(t *testing.T) {
	r := genderPop(123, 77)
	splits, _ := dataset.Partition(r, 3, dataset.Skewed, nil)
	counts, _, err := CountSelections(zeroCluster(3), []*query.SSD{genderSSD(1, 1)}, r.Schema(), splits, [][]int{{0}, {1}}, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if counts[0] != 123 || counts[1] != 77 {
		t.Fatalf("counts = %v", counts)
	}
}

// TestSelectionConfigChecked: a selection list that does not fit the queries
// — as a config decoded from a socket might not — is an error from the job
// builder, not an index panic inside a map task.
func TestSelectionConfigChecked(t *testing.T) {
	r := genderPop(4, 4)
	splits, _ := dataset.Partition(r, 2, dataset.RoundRobin, nil)
	queries := []*query.SSD{genderSSD(1, 1), incomeSSD(1, 1)}
	for name, bad := range map[string]struct {
		sels  [][]int
		freqs [][]int
	}{
		"arity":             {[][]int{{0}}, [][]int{{1}}},
		"stratum too large": {[][]int{{0, 2}}, [][]int{{1}}},
		"stratum below -1":  {[][]int{{-2, 0}}, [][]int{{1}}},
		"frequency row":     {[][]int{{0, 0}, {1, 1}}, [][]int{{1}}},
	} {
		if _, _, err := SampleSelections(zeroCluster(2), queries, r.Schema(), splits, bad.sels, bad.freqs, nil, nil, 1); err == nil {
			t.Errorf("%s: sampling job built from a malformed selection config", name)
		}
	}
	if _, _, err := CountSelections(zeroCluster(2), queries, r.Schema(), splits, [][]int{{0, 0, 0}}, nil, 1); err == nil {
		t.Error("counting job built from a selection of the wrong arity")
	}
}

func TestQSKeyString(t *testing.T) {
	k := QSKey{Query: 0, Stratum: 2}
	if k.String() != "Q1/s3" {
		t.Fatalf("String = %q", k.String())
	}
}
