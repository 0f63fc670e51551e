package cps

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

// wideMSSD stratifies three overlapping dimensions (gender × income bands ×
// age bands), so the initial sample yields dozens of relevant selections —
// enough independent per-σ blocks for the parallel decomposed solver to have
// real work to distribute.
func wideMSSD() *query.MSSD {
	gender := []query.Stratum{
		{Cond: predicate.MustParse("gender = 1"), Freq: 12},
		{Cond: predicate.MustParse("gender = 0"), Freq: 14},
	}
	var income []query.Stratum
	for lo := 0; lo < 1000; lo += 250 {
		income = append(income, query.Stratum{
			Cond: predicate.MustParse(fmt.Sprintf("income >= %d and income < %d", lo, lo+250)),
			Freq: 6,
		})
	}
	income = append(income, query.Stratum{Cond: predicate.MustParse("income >= 1000"), Freq: 3})
	var age []query.Stratum
	for lo := 18; lo < 78; lo += 12 {
		age = append(age, query.Stratum{
			Cond: predicate.MustParse(fmt.Sprintf("age >= %d and age < %d", lo, lo+12)),
			Freq: 5,
		})
	}
	age = append(age, query.Stratum{Cond: predicate.MustParse("age >= 78"), Freq: 5})
	return query.NewMSSD(query.PenaltyCosts{Interview: 1},
		query.NewSSD("Q1", gender...),
		query.NewSSD("Q2", income...),
		query.NewSSD("Q3", age...))
}

// wideStats runs the MQE step and the limit count for wideMSSD, producing the
// statistics the constraint program is formulated from.
func wideStats(t testing.TB, n int) (*Stats, *query.MSSD) {
	t.Helper()
	r := testPop(n)
	m := wideMSSD()
	compiled, err := CompileQueries(m.Queries, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	splits, err := dataset.Partition(r, 2, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	initial, _, err := stratified.RunMQE(zcluster(2), m.Queries, r.Schema(), splits, stratified.Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	statsQ := CollectFrequencies(m.Queries, initial, compiled)
	if _, err := CountLimitsInMemory(r, compiled, statsQ.Entries); err != nil {
		t.Fatal(err)
	}
	return statsQ, m
}

// The decomposed solve must read the same at every pool width: same
// assignments, same program sizes, and a byte-identical Objective — the fold
// walks blocks in sorted key order precisely so float summation order never
// depends on goroutine scheduling.
func TestDecomposedParallelDeterministic(t *testing.T) {
	statsQ, m := wideStats(t, 2000)
	serial, err := solve(statsQ, m.Costs, SolveOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Assign) < 10 {
		t.Fatalf("want a wide program, got only %d selections", len(serial.Assign))
	}
	for _, par := range []int{2, 8, 32} {
		plan, err := solve(statsQ, m.Costs, SolveOptions{}, par)
		if err != nil {
			t.Fatalf("parallelism %d: %v", par, err)
		}
		if plan.Objective != serial.Objective {
			t.Fatalf("parallelism %d: objective %v, serial %v (must be bit-identical)",
				par, plan.Objective, serial.Objective)
		}
		if plan.Vars != serial.Vars || plan.Constraints != serial.Constraints {
			t.Fatalf("parallelism %d: size %d/%d, serial %d/%d",
				par, plan.Vars, plan.Constraints, serial.Vars, serial.Constraints)
		}
		if !reflect.DeepEqual(plan.Assign, serial.Assign) {
			t.Fatalf("parallelism %d: assignments differ from serial solve", par)
		}
	}
}

// SolvePlan (a pool of GOMAXPROCS goroutines) must equal width 1.
func TestDecomposedDefaultParallelismDeterministic(t *testing.T) {
	statsQ, m := wideStats(t, 1200)
	serial, err := solve(statsQ, m.Costs, SolveOptions{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	def, err := SolvePlan(statsQ, m.Costs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serial, def) {
		t.Fatal("default parallel plan differs from serial plan")
	}
}

// BenchmarkLPParallel compares the decomposed constraint-program solve at
// pool widths 1 to 8 over a wide selection set (the per-σ blocks are
// independent LPs).
func BenchmarkLPParallel(b *testing.B) {
	statsQ, m := wideStats(b, 4000)
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := solve(statsQ, m.Costs, SolveOptions{}, par); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("integer/parallelism=1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solve(statsQ, m.Costs, SolveOptions{Integer: true}, 1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("integer/parallelism=8", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := solve(statsQ, m.Costs, SolveOptions{Integer: true}, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}
