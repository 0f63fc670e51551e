package experiments

import (
	"fmt"

	"repro/internal/cps"
)

// Table2Row is one query group's cost comparison.
type Table2Row struct {
	Group     string
	MQECost   float64 // mean over runs
	CPSCost   float64 // mean over runs
	Ratio     float64 // CPSCost / MQECost — the paper's reported percentage
	PaperPct  float64 // the value Table 2 of the paper reports
	Runs      int
	SampleSum int // per-SSD sample size used
}

// Table2Result reproduces Table 2: "Survey cost when using MR-CPS as the
// percentage of the survey cost when using MR-MQE" (paper: 62%, 51%, 47%).
type Table2Result struct {
	Rows []Table2Row
}

// paperTable2 holds the published values for side-by-side reporting.
var paperTable2 = map[string]float64{"Small": 0.62, "Medium": 0.51, "Large": 0.47}

// Table2 runs the cost-effectiveness experiment of Section 6.2.1. The first
// sample size of the config is used (costs are size-normalised ratios; the
// paper aggregates per group).
func Table2(cfg Config) (*Table2Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pop := cfg.population()
	res := &Table2Result{}
	sampleSize := cfg.SampleSizes[0]
	for _, group := range cfg.groups() {
		w, err := buildWorkload(cfg, pop, group, sampleSize, cfg.Slaves)
		if err != nil {
			return nil, err
		}
		var mqeSum, cpsSum float64
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)*7919
			cpsRes, err := w.runCPS(seed, cps.SolveOptions{})
			if err != nil {
				return nil, fmt.Errorf("table2 %s run %d: %w", group.Name, run, err)
			}
			// The CPS pipeline's step-1 answer IS an MR-MQE answer, so it
			// doubles as the benchmark (as in the paper, MR-MQE selects
			// individuals independently per survey).
			mqeSum += cpsRes.Initial.Cost(w.mssd.Costs)
			cpsSum += cpsRes.Answers.Cost(w.mssd.Costs)
		}
		mqe := mqeSum / float64(cfg.Runs)
		cpsC := cpsSum / float64(cfg.Runs)
		res.Rows = append(res.Rows, Table2Row{
			Group:     group.Name,
			MQECost:   mqe,
			CPSCost:   cpsC,
			Ratio:     cpsC / mqe,
			PaperPct:  paperTable2[group.Name],
			Runs:      cfg.Runs,
			SampleSum: sampleSize,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *Table2Result) Table() *Table {
	t := &Table{
		Title:  "Table 2: cost CPS / cost MQE",
		Header: []string{"Dataset", "MQE cost", "CPS cost", "cost CPS/cost MQE", "paper"},
		Caption: "Survey cost when using MR-CPS as the percentage of the survey cost\n" +
			"when using MR-MQE (paper: 62% / 51% / 47%).",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Group, money(row.MQECost), money(row.CPSCost), pct(row.Ratio), pct(row.PaperPct),
		})
	}
	return t
}
