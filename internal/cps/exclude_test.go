package cps

import "testing"

// TestCrossCampaignExclusion: individuals surveyed in a first campaign can
// be banned from the next one — no excluded ID may appear anywhere in the
// second campaign's answers, and the second campaign must still fill its
// frequencies from the remaining population.
func TestCrossCampaignExclusion(t *testing.T) {
	r := testPop(600)
	m := example6MSSD(10, 12, 11, 9)
	splits := splitsOf(t, r, 3)

	first, err := Run(zcluster(3), m, r.Schema(), splits, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	banned := make(map[int64]struct{})
	for id := range first.Answers.Assignments() {
		banned[id] = struct{}{}
	}
	if len(banned) == 0 {
		t.Fatal("first campaign selected nobody")
	}

	second, err := Run(zcluster(3), m, r.Schema(), splits, Options{Seed: 2, Exclude: banned})
	if err != nil {
		t.Fatal(err)
	}
	for id := range second.Answers.Assignments() {
		if _, bad := banned[id]; bad {
			t.Fatalf("excluded individual %d re-surveyed", id)
		}
	}
	// The population is large enough that the second campaign still fills
	// every stratum completely.
	for qi, q := range m.Queries {
		if got, want := second.Answers[qi].Size(), q.TotalFreq(); got != want {
			t.Fatalf("campaign 2 survey %d: %d of %d slots filled", qi, got, want)
		}
	}
	// The initial representative answer of campaign 2 is also clean.
	for id := range second.Initial.Assignments() {
		if _, bad := banned[id]; bad {
			t.Fatalf("excluded individual %d in campaign 2's initial answer", id)
		}
	}
}

// TestExclusionShrinksLimits: L(σ) must not count excluded individuals, or
// the plan could promise more sharing than the samplable population allows.
func TestExclusionShrinksLimits(t *testing.T) {
	r := testPop(300)
	m := example6MSSD(5, 5, 5, 5)
	compiled, err := CompileQueries(m.Queries, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	first, err := Run(zcluster(2), m, r.Schema(), splitsOf(t, r, 2), Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Exclude half the population.
	banned := make(map[int64]struct{})
	for i := int64(0); i < 150; i++ {
		banned[i] = struct{}{}
	}
	stats := CollectFrequencies(m.Queries, first.Initial, compiled)
	full := CollectFrequencies(m.Queries, first.Initial, compiled)
	if _, err := CountLimits(zcluster(2), m.Queries, r.Schema(), full, splitsOf(t, r, 2), 3, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := CountLimits(zcluster(2), m.Queries, r.Schema(), stats, splitsOf(t, r, 2), 3, banned); err != nil {
		t.Fatal(err)
	}
	var fullTotal, exclTotal int64
	for key, e := range full.Entries {
		fullTotal += e.Limit
		exclTotal += stats.Entries[key].Limit
	}
	if exclTotal >= fullTotal {
		t.Fatalf("excluded limits %d not below full limits %d", exclTotal, fullTotal)
	}
}
