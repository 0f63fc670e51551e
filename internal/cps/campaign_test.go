package cps

import (
	"reflect"
	"testing"
)

func TestCampaignWavesDisjoint(t *testing.T) {
	r := testPop(900)
	m := example6MSSD(8, 8, 8, 8)
	camp := NewCampaign(zcluster(3), r.Schema(), splitsOf(t, r, 3))

	var waveIDs []map[int64]struct{}
	for wave := 0; wave < 3; wave++ {
		res, err := camp.RunWave(m, Options{Seed: int64(wave) * 101})
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[int64]struct{})
		for id := range res.Answers.Assignments() {
			ids[id] = struct{}{}
		}
		waveIDs = append(waveIDs, ids)
		// Each wave still fills every survey completely.
		for qi, q := range m.Queries {
			if got, want := res.Answers[qi].Size(), q.TotalFreq(); got != want {
				t.Fatalf("wave %d survey %d: %d of %d slots", wave, qi, got, want)
			}
		}
	}
	// Waves must be pairwise disjoint.
	total := 0
	for w1 := range waveIDs {
		total += len(waveIDs[w1])
		for w2 := w1 + 1; w2 < len(waveIDs); w2++ {
			for id := range waveIDs[w1] {
				if _, dup := waveIDs[w2][id]; dup {
					t.Fatalf("individual %d in waves %d and %d", id, w1, w2)
				}
			}
		}
	}
	if camp.TotalSurveyed() != total {
		t.Fatalf("TotalSurveyed %d, want %d", camp.TotalSurveyed(), total)
	}
	if len(camp.Waves) != 3 {
		t.Fatalf("%d waves recorded", len(camp.Waves))
	}
}

func TestCampaignMergesCallerExclusions(t *testing.T) {
	r := testPop(600)
	m := example6MSSD(5, 5, 5, 5)
	camp := NewCampaign(zcluster(2), r.Schema(), splitsOf(t, r, 2))
	// Caller-provided ban on top of the campaign's own bookkeeping.
	ban := map[int64]struct{}{}
	for i := int64(0); i < 100; i++ {
		ban[i] = struct{}{}
	}
	res, err := camp.RunWave(m, Options{Seed: 9, Exclude: ban})
	if err != nil {
		t.Fatal(err)
	}
	for id := range res.Answers.Assignments() {
		if _, banned := ban[id]; banned {
			t.Fatalf("banned individual %d surveyed", id)
		}
	}
}

// TestCampaignWaveEqualsRunWithExclusions: a campaign wave is an MR-CPS run
// with the accumulated exclusion set and nothing more — bit-identical LP
// objective, equal program size, plan and answers to a Run that replicates
// RunWave's exclusion bookkeeping by hand.
func TestCampaignWaveEqualsRunWithExclusions(t *testing.T) {
	r := testPop(900)
	m := example6MSSD(8, 8, 8, 8)
	splits := splitsOf(t, r, 3)
	camp := NewCampaign(zcluster(3), r.Schema(), splits)
	surveyed := make(map[int64]struct{})

	for wave := 0; wave < 3; wave++ {
		waveRes, err := camp.RunWave(m, Options{Seed: int64(wave) * 101})
		if err != nil {
			t.Fatal(err)
		}
		exclude := make(map[int64]struct{}, len(surveyed))
		for id := range surveyed {
			exclude[id] = struct{}{}
		}
		runRes, err := Run(zcluster(3), m, r.Schema(), splits, Options{
			Seed: int64(wave) * 101, Exclude: exclude,
		})
		if err != nil {
			t.Fatal(err)
		}
		for id := range runRes.Answers.Assignments() {
			surveyed[id] = struct{}{}
		}

		if waveRes.LP.Objective != runRes.LP.Objective {
			t.Errorf("wave %d: objective %x, run %x", wave, waveRes.LP.Objective, runRes.LP.Objective)
		}
		if waveRes.LP.Vars != runRes.LP.Vars || waveRes.LP.Constraints != runRes.LP.Constraints {
			t.Errorf("wave %d: program %d×%d, run %d×%d", wave,
				waveRes.LP.Vars, waveRes.LP.Constraints, runRes.LP.Vars, runRes.LP.Constraints)
		}
		if !reflect.DeepEqual(waveRes.Plan.Assign, runRes.Plan.Assign) {
			t.Errorf("wave %d: wave and run plans differ", wave)
		}
		if !reflect.DeepEqual(waveRes.Answers, runRes.Answers) {
			t.Errorf("wave %d: wave and run answers differ", wave)
		}
	}
}
