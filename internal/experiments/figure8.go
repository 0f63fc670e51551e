package experiments

import (
	"fmt"
	"time"

	"repro/internal/cps"
)

// Figure8Row is the LP cost of one (group, sample size) configuration.
type Figure8Row struct {
	Group       string
	SampleSize  int
	Formulate   time.Duration // building [[Q]]*, SSTs and limits bookkeeping
	Solve       time.Duration // Simplex time
	Vars        int
	Constraints int
	Selections  int
	// PipelineSimulated is the whole MR-CPS virtual-clock time, to show
	// the LP share is negligible (the paper: <1% of the running time).
	PipelineSimulated time.Duration
}

// Figure8Result reproduces Figure 8: "The average running times, in seconds,
// for formulating and solving the LP (log scale)".
type Figure8Result struct {
	Rows []Figure8Row
}

// Figure8 measures LP formulation and solve times per group and sample size.
// Unlike the virtual cluster clock, these are real measured durations — the
// LP runs on one machine in both the paper and this reproduction.
func Figure8(cfg Config) (*Figure8Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pop := cfg.population()
	res := &Figure8Result{}
	for _, group := range cfg.groups() {
		for _, sampleSize := range cfg.SampleSizes {
			w, err := buildWorkload(cfg, pop, group, sampleSize, cfg.Slaves)
			if err != nil {
				return nil, err
			}
			var form, solve, pipeline time.Duration
			var vars, cons, sels int
			for run := 0; run < cfg.Runs; run++ {
				seed := cfg.Seed + int64(run)*3571
				cpsRes, err := w.runCPS(seed, cps.SolveOptions{})
				if err != nil {
					return nil, fmt.Errorf("figure8 %s: %w", group.Name, err)
				}
				form += cpsRes.LP.FormulateTime
				solve += cpsRes.LP.SolveTime
				pipeline += cpsRes.Metrics.SimulatedTotal()
				vars += cpsRes.LP.Vars
				cons += cpsRes.LP.Constraints
				sels += cpsRes.LP.Selections
			}
			n := time.Duration(cfg.Runs)
			res.Rows = append(res.Rows, Figure8Row{
				Group:             group.Name,
				SampleSize:        sampleSize,
				Formulate:         form / n,
				Solve:             solve / n,
				Vars:              vars / cfg.Runs,
				Constraints:       cons / cfg.Runs,
				Selections:        sels / cfg.Runs,
				PipelineSimulated: pipeline / n,
			})
		}
	}
	return res, nil
}

// Table renders the result.
func (r *Figure8Result) Table() *Table {
	t := &Table{
		Title:  "Figure 8: LP formulate+solve times",
		Header: []string{"Group", "Sample", "|[[Q]]*|", "vars", "cons", "formulate", "solve", "pipeline(sim)"},
		Caption: "Paper: LP times are seconds at most — insignificant next to the\n" +
			"MapReduce pipeline; one node suffices for the LP.",
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Group,
			fmt.Sprintf("%d", row.SampleSize),
			fmt.Sprintf("%d", row.Selections),
			fmt.Sprintf("%d", row.Vars),
			fmt.Sprintf("%d", row.Constraints),
			seconds(row.Formulate.Seconds()),
			seconds(row.Solve.Seconds()),
			seconds(row.PipelineSimulated.Seconds()),
		})
	}
	return t
}
