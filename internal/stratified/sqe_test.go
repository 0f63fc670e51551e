package stratified

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stats"
)

func testSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
}

// genderPop builds a population with `men` men then `women` women, IDs 0..n.
func genderPop(men, women int) *dataset.Relation {
	r := dataset.NewRelation(testSchema())
	id := int64(0)
	for i := 0; i < men; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{1, id % 1001}})
		id++
	}
	for i := 0; i < women; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{0, id % 1001}})
		id++
	}
	return r
}

func genderSSD(fMen, fWomen int) *query.SSD {
	return query.NewSSD("gender",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: fMen},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: fWomen},
	)
}

func zeroCluster(slaves int) *mapreduce.Cluster {
	return &mapreduce.Cluster{Slaves: slaves, Cost: mapreduce.ZeroCostModel()}
}

// TestSQEExactCounts: the paper's Example 5 setting — 30 men and 34 women on
// two machines, select 5 men and 6 women.
func TestSQEExactCounts(t *testing.T) {
	r := genderPop(30, 34)
	splits, err := dataset.Partition(r, 2, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := genderSSD(5, 6)
	ans, met, err := RunSQE(zeroCluster(2), q, r.Schema(), splits, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Satisfies(q, r); err != nil {
		t.Fatal(err)
	}
	if met.MapInputRecords != 64 {
		t.Fatalf("map input %d, want 64", met.MapInputRecords)
	}
	// The combiner caps each machine's shuffle contribution at f_k per
	// stratum: ≤ 2·(5+6) weighted samples.
	if met.ShuffleRecords > 4 {
		t.Fatalf("shuffle records %d; combiner should send one weighted sample per (task, stratum)", met.ShuffleRecords)
	}
}

func TestSQESmallStratumTakesAll(t *testing.T) {
	r := genderPop(3, 10)
	splits, _ := dataset.Partition(r, 4, dataset.RoundRobin, nil)
	q := genderSSD(5, 2) // only 3 men exist
	ans, _, err := RunSQE(zeroCluster(4), q, r.Schema(), splits, Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Strata[0]) != 3 {
		t.Fatalf("men stratum has %d, want all 3", len(ans.Strata[0]))
	}
	if len(ans.Strata[1]) != 2 {
		t.Fatalf("women stratum has %d, want 2", len(ans.Strata[1]))
	}
}

func TestSQEEmptyStratum(t *testing.T) {
	r := genderPop(0, 10)
	splits, _ := dataset.Partition(r, 2, dataset.RoundRobin, nil)
	q := genderSSD(5, 2)
	ans, _, err := RunSQE(zeroCluster(2), q, r.Schema(), splits, Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Strata[0]) != 0 {
		t.Fatalf("empty stratum returned %d tuples", len(ans.Strata[0]))
	}
}

func TestSQEExclude(t *testing.T) {
	r := genderPop(10, 10)
	splits, _ := dataset.Partition(r, 2, dataset.RoundRobin, nil)
	exclude := map[int64]struct{}{}
	for i := int64(0); i < 8; i++ { // exclude 8 of the 10 men
		exclude[i] = struct{}{}
	}
	q := genderSSD(5, 0)
	ans, _, err := RunSQE(zeroCluster(2), q, r.Schema(), splits, Options{Seed: 4, Exclude: exclude})
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Strata[0]) != 2 {
		t.Fatalf("got %d men, want the 2 non-excluded", len(ans.Strata[0]))
	}
	for _, tp := range ans.Strata[0] {
		if _, banned := exclude[tp.ID]; banned {
			t.Fatalf("excluded tuple %d sampled", tp.ID)
		}
	}
}

// TestSQEUnbiasedAcrossSkewedPartitions is the paper's core correctness
// claim (Section 4.2.3): even when machines hold very different numbers of
// stratum members, every individual has equal inclusion probability. The
// naive "sample per machine then uniformly merge" scheme fails this exact
// test; MR-SQE must pass it.
func TestSQEUnbiasedAcrossSkewedPartitions(t *testing.T) {
	const runs = 4000
	r := genderPop(48, 0)
	// Highly skewed: machine 0 gets 4 men, machine 1 gets 44.
	all := r.Tuples()
	splits := []dataset.Split{
		append(dataset.Split(nil), all[:4]...),
		append(dataset.Split(nil), all[4:]...),
	}
	q := genderSSD(6, 0)
	counts := make([]int64, 48)
	for run := 0; run < runs; run++ {
		ans, _, err := RunSQE(zeroCluster(2), q, r.Schema(), splits, Options{Seed: int64(run)})
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
		t.Fatalf("MR-SQE inclusion is biased across skewed machines: p = %g", p)
	}
}

// TestSQENaiveAndCombinedAgreeInDistribution: both variants must include
// each individual uniformly; compare their per-individual inclusion counts.
func TestSQENaiveAndCombinedAgreeInDistribution(t *testing.T) {
	const runs = 2500
	r := genderPop(30, 0)
	splits, _ := dataset.Partition(r, 3, dataset.Skewed, nil)
	q := genderSSD(5, 0)
	countCombined := make([]int64, 30)
	countNaive := make([]int64, 30)
	for run := 0; run < runs; run++ {
		a, _, err := RunSQE(zeroCluster(3), q, r.Schema(), splits, Options{Seed: int64(run)})
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := RunSQE(zeroCluster(3), q, r.Schema(), splits, Options{Seed: int64(run), Naive: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range a.Strata[0] {
			countCombined[tp.ID]++
		}
		for _, tp := range b.Strata[0] {
			countNaive[tp.ID]++
		}
	}
	for name, counts := range map[string][]int64{"combined": countCombined, "naive": countNaive} {
		p, err := stats.ChiSquareUniformP(counts)
		if err != nil {
			t.Fatal(err)
		}
		if p < 1e-4 {
			t.Fatalf("%s variant biased: p = %g", name, p)
		}
	}
}

// TestSQEMatchesSequentialDistribution: the prefix-count distribution of the
// distributed sample matches the hypergeometric law of Remark 1, like the
// sequential oracle.
func TestSQEMatchesSequentialDistribution(t *testing.T) {
	const runs = 3000
	const nPop, fk, prefix = 24, 6, 8
	r := genderPop(nPop, 0)
	splits, _ := dataset.Partition(r, 3, dataset.Contiguous, nil)
	q := genderSSD(fk, 0)

	// Distribution of: how many sampled IDs fall among the first `prefix`
	// individuals. Expected: hypergeometric(r=24, c=6... note here the
	// "marked" set is the sample). P(y in prefix) with x=prefix drawn.
	hist := make([]int64, fk+1)
	for run := 0; run < runs; run++ {
		ans, _, err := RunSQE(zeroCluster(3), q, r.Schema(), splits, Options{Seed: int64(run) + 9000})
		if err != nil {
			t.Fatal(err)
		}
		y := 0
		for _, tp := range ans.Strata[0] {
			if tp.ID < prefix {
				y++
			}
		}
		hist[y]++
	}
	expected := make([]float64, fk+1)
	for y := 0; y <= fk; y++ {
		expected[y] = float64(runs) * stats.HypergeometricPMF(nPop, fk, prefix, int64(y))
	}
	// Merge tail cells with tiny expectation into the last usable cell to
	// keep the chi-square valid.
	obs, exp := mergeSmallCells(hist, expected, 5)
	chi2, err := stats.ChiSquareStat(obs, exp)
	if err != nil {
		t.Fatal(err)
	}
	if p := stats.ChiSquareP(chi2, len(obs)-1); p < 1e-4 {
		t.Fatalf("prefix counts not hypergeometric: p = %g (obs %v exp %v)", p, obs, exp)
	}
}

// mergeSmallCells pools adjacent cells until every expected count ≥ minExp.
func mergeSmallCells(obs []int64, exp []float64, minExp float64) ([]int64, []float64) {
	var o []int64
	var e []float64
	var accO int64
	var accE float64
	for i := range obs {
		accO += obs[i]
		accE += exp[i]
		if accE >= minExp {
			o = append(o, accO)
			e = append(e, accE)
			accO, accE = 0, 0
		}
	}
	if accE > 0 && len(e) > 0 {
		o[len(o)-1] += accO
		e[len(e)-1] += accE
	}
	return o, e
}

func TestSQEDeterministicPerSeed(t *testing.T) {
	r := genderPop(40, 40)
	splits, _ := dataset.Partition(r, 4, dataset.RoundRobin, nil)
	q := genderSSD(7, 7)
	ids := func(ans *query.Answer) []int64 {
		var out []int64
		for _, s := range ans.Strata {
			for _, tp := range s {
				out = append(out, tp.ID)
			}
		}
		return out
	}
	a, _, _ := RunSQE(zeroCluster(4), q, r.Schema(), splits, Options{Seed: 77})
	b, _, _ := RunSQE(zeroCluster(4), q, r.Schema(), splits, Options{Seed: 77})
	ia, ib := ids(a), ids(b)
	if len(ia) != len(ib) {
		t.Fatal("sizes differ across identical runs")
	}
	for i := range ia {
		if ia[i] != ib[i] {
			t.Fatal("same seed produced different samples")
		}
	}
}

func TestSequentialOracle(t *testing.T) {
	r := genderPop(30, 34)
	q := genderSSD(5, 6)
	rng := rand.New(rand.NewSource(5))
	ans, err := Sequential(q, r, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Satisfies(q, r); err != nil {
		t.Fatal(err)
	}
}

func TestSequentialUniform(t *testing.T) {
	const runs = 6000
	r := genderPop(20, 0)
	q := genderSSD(5, 0)
	rng := rand.New(rand.NewSource(6))
	counts := make([]int64, 20)
	for run := 0; run < runs; run++ {
		ans, err := Sequential(q, r, rng)
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
		t.Fatalf("sequential sampler biased: p = %g", p)
	}
}

func TestSequentialMultiOracle(t *testing.T) {
	r := genderPop(60, 80)
	queries := []*query.SSD{genderSSD(5, 6), incomeSSD(4, 3)}
	rng := rand.New(rand.NewSource(8))
	answers, err := SequentialMulti(queries, r, rng)
	if err != nil {
		t.Fatal(err)
	}
	for qi, q := range queries {
		if err := answers[qi].Satisfies(q, r); err != nil {
			t.Fatalf("query %d: %v", qi, err)
		}
	}
	bad := []*query.SSD{query.NewSSD("bad", query.Stratum{Cond: predicate.MustParse("zzz = 1"), Freq: 1})}
	if _, err := SequentialMulti(bad, r, rng); err == nil {
		t.Fatal("want compile error for unknown attribute")
	}
}
