package cps

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

func selQueries() []*query.SSD {
	q1 := query.NewSSD("Q1",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 5},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 5},
	)
	q2 := query.NewSSD("Q2",
		query.Stratum{Cond: predicate.MustParse("income < 500"), Freq: 5},
		query.Stratum{Cond: predicate.MustParse("income > 800"), Freq: 5}, // partial coverage
	)
	return []*query.SSD{q1, q2}
}

func TestSelectionOf(t *testing.T) {
	queries := selQueries()
	compiled, err := CompileQueries(queries, testSchema())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		attrs []int64
		want  Selection
	}{
		{[]int64{1, 100, 20}, Selection{0, 0}},    // man, low income
		{[]int64{0, 900, 20}, Selection{1, 1}},    // woman, high income
		{[]int64{1, 600, 20}, Selection{0, None}}, // man, mid income — Q2 has no stratum
	}
	for _, c := range cases {
		tp := dataset.Tuple{Attrs: c.attrs}
		got := SelectionOf(&tp, compiled)
		if got.Key() != c.want.Key() {
			t.Fatalf("SelectionOf(%v) = %v, want %v", c.attrs, got, c.want)
		}
	}
}

func TestSelectionKeyRoundTrip(t *testing.T) {
	f := func(raw []int16, nRaw uint8) bool {
		n := int(nRaw)%8 + 1
		sel := make(Selection, n)
		for i := range sel {
			v := -1
			if i < len(raw) {
				v = int(raw[i])
				if v < -1 {
					v = -v
				}
				if v > 60000 {
					v = 60000
				}
			}
			sel[i] = v
		}
		// Two big-endian bytes of (index+1) per level decode back to sel.
		key := sel.Key()
		if len(key) != 2*n {
			return false
		}
		for i, v := range sel {
			if int(key[2*i])<<8|int(key[2*i+1])-1 != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionHelpers(t *testing.T) {
	sel := Selection{2, None, 0}
	if sel.Empty() {
		t.Fatal("non-empty selection reported empty")
	}
	if !(Selection{None, None}).Empty() {
		t.Fatal("empty selection not reported")
	}
	if tau := sel.Tau(); !tau.Contains(0) || tau.Contains(1) || !tau.Contains(2) {
		t.Fatalf("Tau = %v", tau)
	}
	if s := sel.String(); s != "{s1,3, s3,1}" {
		t.Fatalf("String = %q", s)
	}
	cl := sel.Clone()
	cl[0] = 9
	if sel[0] != 2 {
		t.Fatal("Clone aliases")
	}
}

func TestProjectionWithStratum(t *testing.T) {
	queries := selQueries()
	p := Projection(queries, Selection{1, 0}, 0)
	if !predicate.Equal(p, predicate.MustParse("gender = 0")) {
		t.Fatalf("projection = %q", p)
	}
}

func TestProjectionWithoutStratumIsCoverageNegation(t *testing.T) {
	queries := selQueries()
	schema := testSchema()
	p := Projection(queries, Selection{0, None}, 1)
	// π must hold exactly for tuples matching no stratum of Q2.
	compiled := predicate.MustCompile(p, schema)
	mid := dataset.Tuple{Attrs: []int64{1, 600, 20}}
	low := dataset.Tuple{Attrs: []int64{1, 100, 20}}
	if !compiled(&mid) {
		t.Fatal("mid-income tuple should satisfy the negated coverage")
	}
	if compiled(&low) {
		t.Fatal("low-income tuple satisfies Q2's stratum 1; projection must exclude it")
	}
}

// formula returns φ(σ) = π_1(σ) ∧ ... ∧ π_n(σ), the stratum condition of the
// derived query Q′ for this selection (CPS as the paper describes it). MR-CPS
// samples by selection key instead of evaluating it; the test checks the two
// select the same tuples.
func formula(queries []*query.SSD, s Selection) predicate.Expr {
	parts := make([]predicate.Expr, len(queries))
	for i := range queries {
		parts[i] = Projection(queries, s, i)
	}
	return predicate.AndAll(parts...)
}

func TestFormulaSelectsExactlyMatchingTuples(t *testing.T) {
	queries := selQueries()
	schema := testSchema()
	compiled, _ := CompileQueries(queries, schema)
	r := testPop(300)
	for _, sel := range []Selection{{0, 0}, {1, None}, {0, 1}} {
		f := formula(queries, sel)
		pred, err := predicate.Compile(f, schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < r.Len(); i++ {
			tp := r.Tuple(i)
			want := SelectionOf(&tp, compiled).Key() == sel.Key()
			if got := pred(&tp); got != want {
				t.Fatalf("selection %v tuple %v: formula %v, selection-match %v", sel, tp.Attrs, got, want)
			}
		}
	}
}

func TestVarsForOrderingDeterministic(t *testing.T) {
	sel := Selection{0, 1, None, 2}
	taus := varsFor(sel)
	if len(taus) != 7 { // 2^3 - 1
		t.Fatalf("%d vars", len(taus))
	}
	for i := 1; i < len(taus); i++ {
		if taus[i] <= taus[i-1] {
			t.Fatalf("taus not ascending: %v", taus)
		}
	}
	for _, tau := range taus {
		if !tau.SubsetOf(sel.Tau()) {
			t.Fatalf("tau %v outside I(σ)", tau)
		}
	}
}

func TestCountLimitsMapReduceMatchesInMemory(t *testing.T) {
	r := testPop(400)
	m := example6MSSD(10, 10, 10, 10)
	compiled, _ := CompileQueries(m.Queries, r.Schema())
	initial, err := runInitial(t, m, r)
	if err != nil {
		t.Fatal(err)
	}
	statsA := CollectFrequencies(m.Queries, initial, compiled)
	statsB := CollectFrequencies(m.Queries, initial, compiled)
	if _, err := CountLimitsInMemory(r, compiled, statsA.Entries); err != nil {
		t.Fatal(err)
	}
	splits := splitsOf(t, r, 3)
	if _, err := CountLimits(zcluster(3), m.Queries, r.Schema(), statsB, splits, 4, nil); err != nil {
		t.Fatal(err)
	}
	for key, a := range statsA.Entries {
		b := statsB.Entries[key]
		if a.Limit != b.Limit {
			t.Fatalf("selection %s: in-memory limit %d, MapReduce limit %d", a.Sel, a.Limit, b.Limit)
		}
		var total int64 // Σ_i F(A_i, σ)
		for _, f := range a.Freq {
			total += f
		}
		if a.Limit < total/int64(len(m.Queries)) {
			t.Fatalf("selection %s: limit %d below any single F", a.Sel, a.Limit)
		}
	}
}

// TestCountLimitsMatchesInMemoryOnRandomMSSDs: over generated query groups
// and a random exclusion set, the fused counting scan finds for every
// relevant selection exactly the members a sequential scan of the
// non-excluded population finds.
func TestCountLimitsMatchesInMemoryOnRandomMSSDs(t *testing.T) {
	for seed, group := range []gen.GroupParams{gen.Small, gen.Medium, gen.Small, gen.Large} {
		rng := rand.New(rand.NewSource(int64(seed) + 40))
		pop := gen.Population(3000, int64(seed)+7)
		queries, err := gen.QueryGroup(group, pop, 60, rng)
		if err != nil {
			t.Fatal(err)
		}
		exclude := make(map[int64]struct{})
		kept := dataset.NewRelation(pop.Schema())
		for _, tp := range pop.Tuples() {
			if rng.Intn(4) == 0 {
				exclude[tp.ID] = struct{}{}
			} else {
				kept.MustAdd(tp)
			}
		}
		splits, err := dataset.Partition(pop, 5, dataset.Skewed, nil)
		if err != nil {
			t.Fatal(err)
		}
		initial, _, err := stratified.RunMQE(zcluster(3), queries, pop.Schema(), splits, stratified.Options{Seed: int64(seed), Exclude: exclude})
		if err != nil {
			t.Fatal(err)
		}
		compiled, err := CompileQueries(queries, pop.Schema())
		if err != nil {
			t.Fatal(err)
		}
		oracle := CollectFrequencies(queries, initial, compiled)
		fused := CollectFrequencies(queries, initial, compiled)
		if _, err := CountLimitsInMemory(kept, compiled, oracle.Entries); err != nil {
			t.Fatal(err)
		}
		if _, err := CountLimits(zcluster(3), queries, pop.Schema(), fused, splits, 4, exclude); err != nil {
			t.Fatal(err)
		}
		if len(oracle.Entries) < group.N {
			t.Fatalf("%s: only %d relevant selections", group.Name, len(oracle.Entries))
		}
		for key, want := range oracle.Entries {
			if got := fused.Entries[key].Limit; got != want.Limit || got == 0 {
				t.Errorf("%s selection %s: fused limit %d, in-memory limit %d", group.Name, want.Sel, got, want.Limit)
			}
		}
	}
}

func runInitial(t *testing.T, m *query.MSSD, r *dataset.Relation) (query.MultiAnswer, error) {
	t.Helper()
	ans, _, err := stratified.RunMQE(zcluster(3), m.Queries, r.Schema(), splitsOf(t, r, 3), stratified.Options{Seed: 21})
	return ans, err
}

func TestRoundAssignEpsilon(t *testing.T) {
	taus := []query.Tau{query.NewTau(0), query.NewTau(1)}
	x := []float64{2.99995, 1.2}
	got := roundAssign(taus, x, SolveOptions{})
	if got[taus[0]] != 3 { // 2.99995 + 1e-4 floors to 3
		t.Fatalf("X0 = %d, want 3 (epsilon absorbs solver error)", got[taus[0]])
	}
	if got[taus[1]] != 1 {
		t.Fatalf("X1 = %d, want 1", got[taus[1]])
	}
	exact := roundAssign(taus, []float64{2.5, 0.4}, SolveOptions{Integer: true})
	if exact[taus[0]] != 3 {
		t.Fatalf("integer mode rounds: %v", exact)
	}
	if _, present := exact[taus[1]]; present {
		t.Fatal("zero assignments must be omitted")
	}
}

func TestWantPerSelectionAndAssigned(t *testing.T) {
	plan := &Plan{Assign: map[string]map[query.Tau]int64{
		"a": {query.NewTau(0): 2, query.NewTau(0, 1): 3},
		"b": {},
	}}
	want := plan.WantPerSelection()
	if want["a"] != 5 {
		t.Fatalf("want[a] = %d", want["a"])
	}
	if _, present := want["b"]; present {
		t.Fatal("empty selections must be omitted")
	}
	if plan.Assigned("a", 0) != 5 || plan.Assigned("a", 1) != 3 || plan.Assigned("a", 2) != 0 {
		t.Fatal("Assigned sums wrong")
	}
}
