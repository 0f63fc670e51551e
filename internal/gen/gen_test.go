package gen

import (
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/stats"
)

func TestDistributionQuantileInvertsCDF(t *testing.T) {
	dagum := Dagum{K: 0.68, Alpha: 0.52, Beta: 0.89, Gamma: 1}
	burr := Burr{K: 0.47, Alpha: 2.96, Beta: 3.05, Gamma: 0}
	for _, u := range []float64{0.01, 0.1, 0.5, 0.9, 0.99} {
		// Dagum CDF at quantile must return u.
		x := dagum.Quantile(u)
		cdf := math.Pow(1+math.Pow((x-dagum.Gamma)/dagum.Beta, -dagum.Alpha), -dagum.K)
		if math.Abs(cdf-u) > 1e-9 {
			t.Fatalf("Dagum CDF(Q(%g)) = %g", u, cdf)
		}
		y := burr.Quantile(u)
		bcdf := 1 - math.Pow(1+math.Pow((y-burr.Gamma)/burr.Beta, burr.Alpha), -burr.K)
		if math.Abs(bcdf-u) > 1e-9 {
			t.Fatalf("Burr CDF(Q(%g)) = %g", u, bcdf)
		}
	}
}

func TestPowerFuncRange(t *testing.T) {
	p := PowerFunc{Alpha: 7.75, A: 1936, B: 2013}
	rng := rand.New(rand.NewSource(1))
	var below2000 int
	for i := 0; i < 5000; i++ {
		x := p.Sample(rng)
		if x < 1936 || x > 2013 {
			t.Fatalf("power sample %g out of range", x)
		}
		if x < 2000 {
			below2000++
		}
	}
	// α = 7.75 skews strongly recent: P(x < 2000) = ((2000-1936)/77)^7.75 ≈ 0.24.
	frac := float64(below2000) / 5000
	if frac < 0.15 || frac > 0.33 {
		t.Fatalf("P(year<2000) = %.3f, want ≈ 0.24", frac)
	}
}

// TestQuickQuantileMonotone: all quantile functions are monotone in u.
func TestQuickQuantileMonotone(t *testing.T) {
	dists := []Distribution{
		Dagum{K: 0.24, Alpha: 0.87, Beta: 0.66, Gamma: 1},
		Burr{K: 0.32, Alpha: 2.92, Beta: 2.83, Gamma: 0},
		PowerFunc{Alpha: 11.83, A: 1936, B: 2013},
		UniformInt{Min: 0, Max: 100},
	}
	f := func(a, b float64) bool {
		u1 := math.Abs(math.Mod(a, 1))
		u2 := math.Abs(math.Mod(b, 1))
		if u1 == 0 || u2 == 0 || u1 == u2 {
			return true
		}
		if u1 > u2 {
			u1, u2 = u2, u1
		}
		for _, d := range dists {
			if d.Quantile(u1) > d.Quantile(u2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestClampInt(t *testing.T) {
	for _, tc := range []struct {
		x        float64
		min, max int64
		want     int64
	}{
		{5.4, 0, 10, 5},
		{5.6, 0, 10, 6},
		{-3, 0, 10, 0},
		{99, 0, 10, 10},
		// Past int64's range a bare conversion is implementation-defined
		// (MinInt64 on amd64), so these read as the wrong end of the domain
		// there unless the range is checked first.
		{1e300, 0, 10, 10},
		{-1e300, 0, 10, 0},
		{math.Inf(1), 0, 10, 10},
		{math.Inf(-1), 0, 10, 0},
		{1 << 63, 0, 10, 10},
		{-1 << 63, -5, 10, -5},
		{1 << 63, math.MinInt64, math.MaxInt64, math.MaxInt64},
		{-1 << 63, math.MinInt64, math.MaxInt64, math.MinInt64},
		{math.NaN(), 0, 10, 0},
	} {
		if got := ClampInt(tc.x, tc.min, tc.max); got != tc.want {
			t.Errorf("ClampInt(%g, %d, %d) = %d, want %d", tc.x, tc.min, tc.max, got, tc.want)
		}
	}
	// nop's Dagum law overflows int64 at the top clip of the copula's
	// uniform, Quantile(1-1e-12) ≈ 5.06e22: such an author has the most
	// papers the domain allows, not the fewest.
	nop := AuthorAttrs()[0]
	if q := nop.Dist.Quantile(1 - 1e-12); q < 1<<63 {
		t.Fatalf("nop's Quantile(1-1e-12) = %g, expected past int64's range", q)
	}
	if got := ClampInt(nop.Dist.Quantile(1-1e-12), nop.Field.Min, nop.Field.Max); got != 699 {
		t.Errorf("nop's tail quantile clamps to %d, want 699", got)
	}
}

func TestPopulationValidAndDeterministic(t *testing.T) {
	p1 := Population(500, 42)
	p2 := Population(500, 42)
	if p1.Len() != 500 {
		t.Fatalf("Len = %d", p1.Len())
	}
	for i := 0; i < p1.Len(); i++ {
		a, b := p1.Tuple(i), p2.Tuple(i)
		if a.ID != b.ID {
			t.Fatal("IDs differ across identical seeds")
		}
		for j := range a.Attrs {
			if a.Attrs[j] != b.Attrs[j] {
				t.Fatal("attributes differ across identical seeds")
			}
		}
	}
	p3 := Population(500, 43)
	same := true
	for i := 0; i < 500 && same; i++ {
		for j := range p1.Tuple(i).Attrs {
			if p1.Tuple(i).Attrs[j] != p3.Tuple(i).Attrs[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical populations")
	}
}

// TestPopulationGolden pins the generated bytes — SHA-256 over
// "%d|%s|%v\n" of every tuple's ID, Name and Attrs — at the values the
// generators produced when every tuple owned its own attribute slice and a
// fmt-formatted name. It also checks the arenas they are cut from now: each
// tuple's Attrs has cap == len, so appending to one leaves its neighbour as
// it was.
func TestPopulationGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		rel  *dataset.Relation
		want string
	}{
		{"Population", Population(1000, 7), "e3f314a8ba0591a37c1d8ac5fe74099659ed7b7af6d7fd4239bbd5482fbab7da"},
		{"UniformPopulation", UniformPopulation(1000, 7), "a5be34c56fd0c987f3dfb9315d313b8f46b4f24fc0cfe7f3a53217b0bad59fa5"},
	} {
		h := sha256.New()
		for _, tp := range tc.rel.Tuples() {
			fmt.Fprintf(h, "%d|%s|%v\n", tp.ID, tp.Name, tp.Attrs)
		}
		if got := fmt.Sprintf("%x", h.Sum(nil)); got != tc.want {
			t.Errorf("%s(1000, 7) hashes to %s, want %s", tc.name, got, tc.want)
		}
		tuples := tc.rel.Tuples()
		for i := range tuples {
			if a := tuples[i].Attrs; cap(a) != len(a) {
				t.Fatalf("%s: tuple %d has cap(Attrs) %d, len %d", tc.name, i, cap(a), len(a))
			}
		}
		next := slices.Clone(tuples[1].Attrs)
		_ = append(tuples[0].Attrs, -1)
		if fmt.Sprint(tuples[1].Attrs) != fmt.Sprint(next) {
			t.Errorf("%s: appending to tuple 0's attributes changed tuple 1's to %v", tc.name, tuples[1].Attrs)
		}
	}
}

// serialPopulation is Population as one loop: each row's normals drawn and
// transformed before the next row's are drawn. It is the oracle the
// two-phase generator is held to.
func serialPopulation(n int, seed int64) *dataset.Relation {
	specs := AuthorAttrs()
	schema := AuthorSchema()
	rel := dataset.NewRelation(schema)
	rel.Grow(n)
	_, next := AuthorTuples(n, len(specs))
	rng := rand.New(rand.NewSource(seed))
	fyIdx, _ := schema.Index("fy")
	lyIdx, _ := schema.Index("ly")
	for id := 0; id < n; id++ {
		latent := rng.NormFloat64()
		t := next()
		attrs := t.Attrs
		for j, s := range specs {
			z := s.Rho*latent + math.Sqrt(1-s.Rho*s.Rho)*rng.NormFloat64()
			u := stdNormalCDF(z)
			if u <= 0 {
				u = 1e-12
			}
			if u >= 1 {
				u = 1 - 1e-12
			}
			attrs[j] = ClampInt(s.Dist.Quantile(u), s.Field.Min, s.Field.Max)
		}
		if attrs[lyIdx] < attrs[fyIdx] {
			attrs[fyIdx], attrs[lyIdx] = attrs[lyIdx], attrs[fyIdx]
		}
		rel.MustAdd(t)
	}
	return rel
}

// TestPopulationMatchesSerialOracle: the draw-then-transform generator
// yields the serial loop's ID, name and attributes on every row, whether the
// transform runs on the caller alone (n below two workers' minimum, or one
// P) or fans out over two, three or eight goroutines.
func TestPopulationMatchesSerialOracle(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	sizes := []int{0, 1, 3, minRowsPerWorker + 1, 2*minRowsPerWorker + 1, 20_011}
	for _, seed := range []int64{1, 7, 42} {
		for _, n := range sizes {
			want := serialPopulation(n, seed).Tuples()
			for _, p := range []int{1, 2, 3, 8} {
				runtime.GOMAXPROCS(p)
				got := Population(n, seed).Tuples()
				if len(got) != len(want) {
					t.Fatalf("seed %d, n %d, GOMAXPROCS %d: %d rows, want %d", seed, n, p, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.ID != w.ID || g.Name != w.Name || !slices.Equal(g.Attrs, w.Attrs) {
						t.Fatalf("seed %d, n %d, GOMAXPROCS %d: row %d is %d %s %v, want %d %s %v",
							seed, n, p, i, g.ID, g.Name, g.Attrs, w.ID, w.Name, w.Attrs)
					}
				}
			}
		}
	}
}

func TestPopulationYearsConsistent(t *testing.T) {
	p := Population(2000, 7)
	schema := p.Schema()
	fy, _ := schema.Index("fy")
	ly, _ := schema.Index("ly")
	for i := 0; i < p.Len(); i++ {
		tp := p.Tuple(i)
		if tp.Attrs[ly] < tp.Attrs[fy] {
			t.Fatalf("author %d: ly %d < fy %d", tp.ID, tp.Attrs[ly], tp.Attrs[fy])
		}
	}
}

func TestPopulationIsCorrelated(t *testing.T) {
	p := Population(5000, 11)
	schema := p.Schema()
	nop, _ := schema.Index("nop")
	cc, _ := schema.Index("cc")
	xs := make([]float64, p.Len())
	ys := make([]float64, p.Len())
	for i := 0; i < p.Len(); i++ {
		xs[i] = float64(p.Tuple(i).Attrs[nop])
		ys[i] = float64(p.Tuple(i).Attrs[cc])
	}
	if corr := stats.PearsonCorr(xs, ys); corr < 0.15 {
		t.Fatalf("nop/cc correlation %.3f, want clearly positive", corr)
	}
}

func TestPopulationIsHeavyTailed(t *testing.T) {
	p := Population(5000, 13)
	schema := p.Schema()
	nop, _ := schema.Index("nop")
	one := 0
	for i := 0; i < p.Len(); i++ {
		if p.Tuple(i).Attrs[nop] <= 2 {
			one++
		}
	}
	// Dagum(0.68, 0.52, 0.89)+1: most authors have very few papers.
	frac := float64(one) / float64(p.Len())
	if frac < 0.4 {
		t.Fatalf("fraction of ≤2-paper authors %.3f; distribution lost its head", frac)
	}
}

func TestUniformPopulationUncorrelated(t *testing.T) {
	p := UniformPopulation(5000, 17)
	schema := p.Schema()
	nop, _ := schema.Index("nop")
	cc, _ := schema.Index("cc")
	xs := make([]float64, p.Len())
	ys := make([]float64, p.Len())
	for i := 0; i < p.Len(); i++ {
		xs[i] = float64(p.Tuple(i).Attrs[nop])
		ys[i] = float64(p.Tuple(i).Attrs[cc])
	}
	if corr := math.Abs(stats.PearsonCorr(xs, ys)); corr > 0.05 {
		t.Fatalf("uniform population correlated: %.3f", corr)
	}
}

func TestQueryGroupShapeAndValidity(t *testing.T) {
	pop := Population(2000, 3)
	rng := rand.New(rand.NewSource(3))
	for _, params := range Groups() {
		queries, err := QueryGroup(params, pop, 100, rng)
		if err != nil {
			t.Fatal(err)
		}
		if len(queries) != params.N {
			t.Fatalf("%s: %d queries, want %d", params.Name, len(queries), params.N)
		}
		for _, q := range queries {
			if len(q.Strata) != params.StrataPerSSD() {
				t.Fatalf("%s %s: %d strata, want %d", params.Name, q.Name, len(q.Strata), params.StrataPerSSD())
			}
			if q.TotalFreq() != 100 {
				t.Fatalf("%s %s: total freq %d, want 100", params.Name, q.Name, q.TotalFreq())
			}
		}
	}
}

func TestQueryGroupStrataDisjointAndValid(t *testing.T) {
	// Full pairwise validation is O(m²) box checks; Small is cheap enough.
	pop := Population(2000, 4)
	schema := pop.Schema()
	rng := rand.New(rand.NewSource(4))
	queries, err := QueryGroup(Small, pop, 64, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		if err := q.Validate(schema); err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
	}
}

func TestQueryGroupStrataCoverDomain(t *testing.T) {
	// Every tuple must fall in exactly one stratum of each SSD (subranges
	// partition the domains).
	pop := Population(300, 21)
	schema := pop.Schema()
	rng := rand.New(rand.NewSource(5))
	queries, err := QueryGroup(Small, pop, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		preds, err := q.Compile(schema)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < pop.Len(); i++ {
			tp := pop.Tuple(i)
			matches := 0
			for _, p := range preds {
				if p(&tp) {
					matches++
				}
			}
			if matches != 1 {
				t.Fatalf("%s: tuple %d matches %d strata, want exactly 1", q.Name, tp.ID, matches)
			}
		}
	}
}

func TestQueryGroupTooManyAttrs(t *testing.T) {
	pop := dataset.NewRelation(dataset.MustSchema(dataset.Field{Name: "only", Min: 0, Max: 9}))
	pop.MustAdd(dataset.Tuple{ID: 1, Attrs: []int64{5}})
	rng := rand.New(rand.NewSource(6))
	if _, err := QueryGroup(Small, pop, 10, rng); err == nil {
		t.Fatal("want error when mc exceeds attribute count")
	}
}

func TestSpread(t *testing.T) {
	got := spread(10, 4)
	want := []int{3, 3, 2, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("spread = %v", got)
		}
	}
	total := 0
	for _, v := range spread(100, 7) {
		total += v
	}
	if total != 100 {
		t.Fatalf("spread loses mass: %d", total)
	}
}

func TestPenaltyTable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	pc := PenaltyTableFixed(6, 4, 10, 100, rng) // more than C(6,2): every pair penalised
	if err := pc.ValidatePenalties(6); err != nil {
		t.Fatal(err)
	}
	if len(pc.Penalties) != 15 { // C(6,2)
		t.Fatalf("%d penalties, want 15", len(pc.Penalties))
	}
	none := PenaltyTableFixed(6, 4, 10, 0, rng)
	if len(none.Penalties) != 0 {
		t.Fatal("count 0 must produce no penalties")
	}
	def := DefaultPenaltyTable(4, rng)
	if def.Interview != DefaultInterviewCost {
		t.Fatalf("interview cost %g", def.Interview)
	}
	if err := def.ValidatePenalties(4); err != nil {
		t.Fatal(err)
	}
	_ = query.Tau(0) // keep import if penalties empty
}
