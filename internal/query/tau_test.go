package query

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestTauBasics(t *testing.T) {
	tau := NewTau(0, 2, 5)
	if tau.Size() != 3 {
		t.Fatalf("Size = %d", tau.Size())
	}
	if !tau.Contains(2) || tau.Contains(1) {
		t.Fatal("Contains wrong")
	}
	if got := tau.Indexes(); !reflect.DeepEqual(got, []int{0, 2, 5}) {
		t.Fatalf("Indexes = %v", got)
	}
	if tau.String() != "{1,3,6}" {
		t.Fatalf("String = %q", tau.String())
	}
	if !NewTau().Empty() || tau.Empty() {
		t.Fatal("Empty wrong")
	}
	if !NewTau(0, 2).SubsetOf(tau) || tau.SubsetOf(NewTau(0, 2)) {
		t.Fatal("SubsetOf wrong")
	}
	if tau.Union(NewTau(1)).Size() != 4 {
		t.Fatal("Union wrong")
	}
}

func TestTauWithPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for out-of-range index")
		}
	}()
	NewTau(64)
}

func TestTauSubsetsEnumeratesAll(t *testing.T) {
	tau := NewTau(0, 1, 3)
	var got []Tau
	tau.Subsets(func(s Tau) bool {
		got = append(got, s)
		return true
	})
	if len(got) != 7 { // 2^3 - 1 non-empty subsets
		t.Fatalf("enumerated %d subsets, want 7", len(got))
	}
	seen := map[Tau]bool{}
	for _, s := range got {
		if s.Empty() || !s.SubsetOf(tau) || seen[s] {
			t.Fatalf("bad subset %v", s)
		}
		seen[s] = true
	}
}

func TestTauSubsetsEarlyStop(t *testing.T) {
	n := 0
	NewTau(0, 1, 2).Subsets(func(Tau) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestTauSubsetsEmpty(t *testing.T) {
	called := false
	NewTau().Subsets(func(Tau) bool { called = true; return true })
	if called {
		t.Fatal("empty Tau has no non-empty subsets")
	}
}

func TestQuickTauSubsetCount(t *testing.T) {
	f := func(mask uint16) bool {
		tau := Tau(mask)
		n := 0
		tau.Subsets(func(s Tau) bool {
			n++
			return true
		})
		want := (1 << tau.Size()) - 1
		return n == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTauPairs(t *testing.T) {
	var pairs [][2]int
	NewTau(1, 4, 6).Pairs(func(i, j int) { pairs = append(pairs, [2]int{i, j}) })
	want := [][2]int{{1, 4}, {1, 6}, {4, 6}}
	if !reflect.DeepEqual(pairs, want) {
		t.Fatalf("Pairs = %v", pairs)
	}
}

func TestCosters(t *testing.T) {
	d := DefaultCosts{Interview: []float64{4, 6, 10}}
	if got := d.Cost(NewTau(0, 2)); got != 14 {
		t.Fatalf("DefaultCosts = %g", got)
	}
	tc := TableCosts{
		Interview: []float64{4, 6, 10},
		Shared:    map[Tau]float64{NewTau(0, 1): 7},
	}
	if got := tc.Cost(NewTau(0, 1)); got != 7 {
		t.Fatalf("explicit entry = %g", got)
	}
	if got := tc.Cost(NewTau(1, 2)); got != 16 {
		t.Fatalf("fallback = %g", got)
	}
}

func TestPenaltyCosts(t *testing.T) {
	pc := PenaltyCosts{
		Interview: 4,
		Penalties: map[Tau]float64{NewTau(0, 1): 10},
	}
	if got := pc.Cost(NewTau(2)); got != 4 {
		t.Fatalf("single survey = %g", got)
	}
	if got := pc.Cost(NewTau(0, 2)); got != 4 {
		t.Fatalf("unpenalised pair = %g", got)
	}
	if got := pc.Cost(NewTau(0, 1)); got != 14 {
		t.Fatalf("penalised pair = %g", got)
	}
	if got := pc.Cost(NewTau(0, 1, 2)); got != 14 {
		t.Fatalf("triple containing penalised pair = %g", got)
	}
	if got := pc.Cost(NewTau()); got != 0 {
		t.Fatalf("empty = %g", got)
	}
}

func TestValidatePenalties(t *testing.T) {
	ok := PenaltyCosts{Interview: 4, Penalties: map[Tau]float64{NewTau(0, 1): 10}}
	if err := ok.ValidatePenalties(2); err != nil {
		t.Fatal(err)
	}
	bad1 := PenaltyCosts{Penalties: map[Tau]float64{NewTau(0): 10}}
	if err := bad1.ValidatePenalties(2); err == nil {
		t.Fatal("want error for non-pair key")
	}
	bad2 := PenaltyCosts{Penalties: map[Tau]float64{NewTau(0, 5): 10}}
	if err := bad2.ValidatePenalties(2); err == nil {
		t.Fatal("want error for out-of-range index")
	}
}

// TestQuickPenaltySharingBeatsDefault: for penalty-free pairs, sharing via
// PenaltyCosts is never more expensive than surveying separately.
func TestQuickPenaltySharingBeatsDefault(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pc := PenaltyCosts{Interview: 4}
		n := rng.Intn(5) + 2
		var tau Tau
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				tau = tau.With(i)
			}
		}
		if tau.Empty() {
			return true
		}
		separate := float64(tau.Size()) * pc.Interview
		return pc.Cost(tau) <= separate
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
