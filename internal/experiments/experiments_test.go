package experiments

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/gen"
)

// quickConfig is a fast configuration for CI-sized runs.
func quickConfig() Config {
	return Config{
		PopulationSize: 12000,
		SampleSizes:    []int{60},
		Runs:           3,
		Slaves:         4,
		Seed:           5,
		Groups:         []gen.GroupParams{gen.Small, gen.Medium},
	}
}

func TestTable2ShowsSavings(t *testing.T) {
	res, err := Table2(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Ratio >= 1 {
			t.Fatalf("%s: CPS did not save cost (ratio %.2f)", row.Group, row.Ratio)
		}
		if row.Ratio < 0.2 {
			t.Fatalf("%s: ratio %.2f implausibly low", row.Group, row.Ratio)
		}
	}
	// More surveys → more sharing opportunities → at least as much saving.
	if res.Rows[1].Ratio > res.Rows[0].Ratio+0.10 {
		t.Fatalf("Medium ratio %.2f much worse than Small %.2f", res.Rows[1].Ratio, res.Rows[0].Ratio)
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFigure6SharingProfile(t *testing.T) {
	res, err := Figure6(quickConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		var sum float64
		for _, s := range row.Share {
			sum += s
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s: shares sum to %.3f", row.Group, sum)
		}
		if row.MeanSurveys <= 1.0 {
			t.Fatalf("%s: CPS mean surveys %.2f; no sharing happened", row.Group, row.MeanSurveys)
		}
		// CPS engineers sharing; MQE's is incidental. At this reduced
		// scale (sample/population = 0.5%, vs the paper's 0.01–1% of 1M)
		// incidental overlap is larger than the paper's <4%, but must
		// stay clearly below CPS's engineered sharing.
		if row.MQESurveyAvg > row.MeanSurveys-0.2 {
			t.Fatalf("%s: MQE average %.2f not clearly below CPS %.2f",
				row.Group, row.MQESurveyAvg, row.MeanSurveys)
		}
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFigure7Scales(t *testing.T) {
	cfg := quickConfig()
	cfg.PopulationSize = 20000
	cfg.Runs = 1
	cfg.Groups = []gen.GroupParams{gen.Small}
	res, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sp := res.Speedup("MQE", "Small", 10)
	if sp < 4 {
		t.Fatalf("speedup 1→10 slaves = %.2f, want near-linear", sp)
	}
	// CPS runs a multi-job pipeline; it must be slower than MQE but within
	// a small factor (paper: ≈3×).
	var mqe, cpsT float64
	for _, c := range res.Cells {
		if c.Slaves != 10 {
			continue
		}
		if c.Algorithm == "MQE" {
			mqe = c.Simulated.Seconds()
		} else {
			cpsT = c.Simulated.Seconds()
		}
	}
	if cpsT <= mqe {
		t.Fatalf("CPS (%.3fs) not slower than MQE (%.3fs)", cpsT, mqe)
	}
	if cpsT > 8*mqe {
		t.Fatalf("CPS (%.3fs) more than 8x MQE (%.3fs)", cpsT, mqe)
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestFigure7PhaseSplitShape(t *testing.T) {
	cfg := quickConfig()
	cfg.Runs = 1
	cfg.Groups = []gen.GroupParams{gen.Small}
	res, err := Figure7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Cells {
		if c.MapFrac < 0.5 {
			t.Fatalf("map fraction %.2f; paper reports the map phase dominates (≈70%%)", c.MapFrac)
		}
		if c.ReduceFrac > 0.10 {
			t.Fatalf("reduce fraction %.2f; paper reports ≈1%%", c.ReduceFrac)
		}
	}
}

func TestFigure8LPNegligible(t *testing.T) {
	cfg := quickConfig()
	cfg.Runs = 2
	res, err := Figure8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		lp := row.Formulate + row.Solve
		if lp.Seconds() > 0.5*row.PipelineSimulated.Seconds() {
			t.Fatalf("%s: LP time %v not negligible vs pipeline %v", row.Group, lp, row.PipelineSimulated)
		}
		if row.Vars == 0 || row.Constraints == 0 || row.Selections == 0 {
			t.Fatalf("%s: empty LP stats %+v", row.Group, row)
		}
	}
}

func TestOptimalityOrdering(t *testing.T) {
	cfg := quickConfig()
	cfg.Groups = []gen.GroupParams{gen.Small}
	cfg.Runs = 2
	res, err := Optimality(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.CLp > row.CIp+1e-6 {
			t.Fatalf("%s: C_LP %.2f > C_IP %.2f", row.Group, row.CLp, row.CIp)
		}
		if row.CIp > row.CA+1e-6 {
			t.Fatalf("%s: C_IP %.2f > C_A %.2f", row.Group, row.CIp, row.CA)
		}
		if row.ResidualFrac > 0.30 {
			t.Fatalf("%s: residual fraction %.3f", row.Group, row.ResidualFrac)
		}
	}
}

func TestUniformComparisonSimilar(t *testing.T) {
	cfg := quickConfig()
	cfg.Groups = []gen.GroupParams{gen.Small}
	res, err := UniformComparison(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.UniformRatio >= 1 || row.RealRatio >= 1 {
			t.Fatalf("%s: no savings (real %.2f, uniform %.2f)", row.Group, row.RealRatio, row.UniformRatio)
		}
		diff := row.RealRatio - row.UniformRatio
		if diff < -0.25 || diff > 0.25 {
			t.Fatalf("%s: ratios diverge (real %.2f, uniform %.2f)", row.Group, row.RealRatio, row.UniformRatio)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{PopulationSize: 0, SampleSizes: []int{1}, Runs: 1, Slaves: 1},
		{PopulationSize: 1, SampleSizes: nil, Runs: 1, Slaves: 1},
		{PopulationSize: 1, SampleSizes: []int{1}, Runs: 0, Slaves: 1},
		{PopulationSize: 1, SampleSizes: []int{1}, Runs: 1, Slaves: 0},
	}
	for i, cfg := range bad {
		if _, err := Table2(cfg); err == nil {
			t.Fatalf("config %d should fail validation", i)
		}
	}
	def := DefaultConfig()
	if err := def.validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDataScalingLinear(t *testing.T) {
	cfg := quickConfig()
	// Large enough that per-record work dominates the fixed task overheads,
	// as in the paper's 10–100 GB regime; otherwise the constant terms
	// flatten the ratios.
	cfg.PopulationSize = 100000
	cfg.Runs = 1
	cfg.Groups = []gen.GroupParams{gen.Small}
	res, err := DataScaling(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("%d rows", len(res.Rows))
	}
	// linearity is time(full)/time(fraction) for the algorithm; for a
	// perfectly linear algorithm it equals 1/fraction (up to fixed overheads).
	linearity := func(algorithm string, fraction float64) float64 {
		var full, part time.Duration
		for _, row := range res.Rows {
			if row.Algorithm != algorithm {
				continue
			}
			if row.Fraction == 1.0 {
				full = row.Simulated
			}
			if row.Fraction == fraction {
				part = row.Simulated
			}
		}
		if part == 0 {
			return 0
		}
		return float64(full) / float64(part)
	}
	for _, alg := range []string{"MQE", "CPS"} {
		// time(100%)/time(50%) should be near 2; overheads pull it down.
		r2 := linearity(alg, 0.5)
		if r2 < 1.5 || r2 > 2.3 {
			t.Fatalf("%s: full/half ratio %.2f, want ≈2 (linear)", alg, r2)
		}
		r10 := linearity(alg, 0.1)
		if r10 < 4 || r10 > 11 {
			t.Fatalf("%s: full/tenth ratio %.2f, want ≈10 (linear, minus fixed overheads)", alg, r10)
		}
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}

func TestScorecardPassesAtModerateScale(t *testing.T) {
	cfg := Config{
		PopulationSize: 30000,
		SampleSizes:    []int{300},
		Runs:           2,
		Slaves:         10,
		Seed:           3,
	}
	res, err := Scorecard(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if !row.Pass {
			t.Errorf("claim %q: paper %s, measured %s — FAIL", row.Claim, row.Paper, row.Measured)
		}
	}
	var buf bytes.Buffer
	res.Table().Render(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty render")
	}
}
