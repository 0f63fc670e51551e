package live

import (
	"math/rand"
	"testing"

	"repro/internal/audit"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// TestChurnInclusionBiasAudit is the correctness gate for incremental
// maintenance: after an interleaved insert/delete/migrate workload — with
// the staleness bound set low enough that repairs fire — the standing
// query's sample must be an unbiased simple random sample of the *final*
// membership. It reuses the chi-square inclusion audit of internal/audit and
// asserts the same alpha gate `strata audit` applies to batch sampling
// (fail below p = 1e-4).
func TestChurnInclusionBiasAudit(t *testing.T) {
	if testing.Short() {
		t.Skip("repeated-run bias audit")
	}
	const (
		n      = 240
		splits = 4
		bound  = 12
		runs   = 400
	)
	q := genderSSD(12, 9)

	// One fixed mutation script, generated once: every trial replays the
	// identical population history, so the final membership is identical and
	// only the sampling randomness (the standing query's seed) varies.
	scriptRNG := rand.New(rand.NewSource(2024))
	nextID := int64(100_000)
	alive := make([]int64, 0, n)
	for id := int64(0); id < int64(n); id++ {
		alive = append(alive, id)
	}
	var script []Mutation
	for step := 0; step < 900; step++ {
		switch r := scriptRNG.Intn(10); {
		case r < 3: // insert
			script = append(script, Mutation{Op: OpInsert, Tuple: tup(nextID, scriptRNG.Int63n(2), scriptRNG.Int63n(1001))})
			alive = append(alive, nextID)
			nextID++
		case r < 7: // delete (heavier than inserts, to force repairs)
			i := scriptRNG.Intn(len(alive))
			script = append(script, Mutation{Op: OpDelete, ID: alive[i]})
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		default: // update, flipping gender half the time (stratum migration)
			i := scriptRNG.Intn(len(alive))
			script = append(script, Mutation{Op: OpUpdate, Tuple: tup(alive[i], scriptRNG.Int63n(2), scriptRNG.Int63n(1001))})
		}
	}

	runTrial := func(seed int64) (*Population, *query.Answer) {
		p := newTestPop(t, n, splits, Config{StalenessBound: bound})
		if _, err := p.Register("q", q, seed); err != nil {
			t.Fatal(err)
		}
		if res := p.Apply(script); len(res.Rejected) > 0 {
			t.Fatalf("script rejected: %+v", res.Rejected)
		}
		ans, _, _, _ := p.Snapshot("q")
		return p, ans
	}

	// Index the accumulator on the final membership of trial zero (every
	// trial ends at the same membership — the script is fixed).
	p0, _ := runTrial(1)
	if s := p0.Stats(); s.Repairs == 0 {
		t.Fatalf("workload triggered no repairs — the test is not exercising staleness (stats %+v)", s)
	} else if s.MaxStaleness > bound {
		t.Fatalf("staleness %d exceeded bound %d", s.MaxStaleness, bound)
	}
	finalSplits, _, release := p0.AcquireSplits()
	ref := make([]dataset.Split, len(finalSplits))
	for i, sp := range finalSplits {
		ref[i] = append(dataset.Split(nil), sp...)
	}
	release()

	acc, err := audit.NewBiasAccumulator(q, testSchema(), ref)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < runs; run++ {
		_, ans := runTrial(int64(run + 1))
		if err := acc.AddRun(ans, mapreduce.Metrics{}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rep.Strata {
		t.Logf("stratum %s: members %d, required %d, chi2 %.1f, p %.4g", s.Stratum, s.Members, s.Required, s.Chi2, s.P)
	}
	if !rep.Passed(1e-4) {
		t.Fatalf("live sampling biased under churn: min p = %g (gate 1e-4)", rep.MinP())
	}
}
