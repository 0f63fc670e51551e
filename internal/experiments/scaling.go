package experiments

import (
	"fmt"
	"time"

	"repro/internal/cps"
	"repro/internal/gen"
)

// ScalingRow is one (data size, algorithm) measurement.
type ScalingRow struct {
	Algorithm string
	// Fraction of the full population (the paper uses 10 GB, 50 GB and
	// 100 GB subsets of its dataset).
	Fraction  float64
	PopSize   int
	Simulated time.Duration
}

// ScalingResult reproduces the Section 6.2.3 claim that "the size of the
// data has a linear effect on the running time", verified there on 10 GB,
// 50 GB and 100 GB subsets.
type ScalingResult struct {
	Rows []ScalingRow
}

// DataScaling measures simulated running time of MR-MQE and MR-CPS on the
// full population and on 1/2 and 1/10 subsets (the paper's proportions).
func DataScaling(cfg Config) (*ScalingResult, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &ScalingResult{}
	group := cfg.groups()[0]
	sampleSize := cfg.SampleSizes[0]
	for _, fraction := range []float64{0.1, 0.5, 1.0} {
		size := int(float64(cfg.PopulationSize) * fraction)
		sub := cfg
		sub.PopulationSize = size
		pop := sub.population()
		w, err := buildWorkload(sub, pop, group, sampleSize, cfg.Slaves)
		if err != nil {
			return nil, err
		}
		var mqeSim, cpsSim time.Duration
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)*7
			_, met, err := w.runMQE(seed)
			if err != nil {
				return nil, fmt.Errorf("scaling MQE at %d: %w", size, err)
			}
			mqeSim += met.SimulatedTotal()
			cpsRes, err := w.runCPS(seed, cps.SolveOptions{})
			if err != nil {
				return nil, fmt.Errorf("scaling CPS at %d: %w", size, err)
			}
			cpsSim += cpsRes.Metrics.SimulatedTotal()
		}
		n := time.Duration(cfg.Runs)
		res.Rows = append(res.Rows,
			ScalingRow{Algorithm: "MQE", Fraction: fraction, PopSize: size, Simulated: mqeSim / n},
			ScalingRow{Algorithm: "CPS", Fraction: fraction, PopSize: size, Simulated: cpsSim / n},
		)
	}
	return res, nil
}

// Table renders the result.
func (r *ScalingResult) Table() *Table {
	t := &Table{
		Title:  "Section 6.2.3: data-size scaling (" + gen.Groups()[0].Name + " group)",
		Header: []string{"Alg", "fraction", "population", "simulated"},
		Caption: "Paper: running the tests on the 100 GB dataset and on 50 GB and 10 GB\n" +
			"subsets confirmed the almost linear increase in running time.",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Algorithm,
			fmt.Sprintf("%.0f%%", row.Fraction*100),
			fmt.Sprintf("%d", row.PopSize),
			seconds(row.Simulated.Seconds()),
		})
	}
	return t
}
