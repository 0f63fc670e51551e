package gen

import (
	"math"
	"math/rand"
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
	if ClampInt(5.4, 0, 10) != 5 || ClampInt(5.6, 0, 10) != 6 {
		t.Fatal("rounding wrong")
	}
	if ClampInt(-3, 0, 10) != 0 || ClampInt(99, 0, 10) != 10 {
		t.Fatal("clamping wrong")
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
