package experiments

import (
	"fmt"
	"time"

	"repro/internal/cps"
	"repro/internal/mapreduce"
)

// Figure7Cell is one (algorithm, slaves, group, sample-size) measurement.
type Figure7Cell struct {
	Algorithm  string // "MQE" or "CPS"
	Slaves     int
	Group      string
	SampleSize int
	Simulated  time.Duration // virtual-clock makespan
	MapFrac    float64       // fraction of simulated work in the map phase
	CombFrac   float64
	ReduceFrac float64
}

// Figure7Result reproduces Figure 7: running times for the query groups on
// cluster configurations of 1, 5 and 10 slaves, with the paper's companion
// observation that ≈70%/28%/1% of time goes to map/combine/reduce.
type Figure7Result struct {
	SlaveSweep []int
	Cells      []Figure7Cell
}

// Figure7 runs the efficiency/scalability experiment. Runs are averaged.
func Figure7(cfg Config) (*Figure7Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pop := cfg.population()
	res := &Figure7Result{SlaveSweep: []int{1, 5, 10}}
	for _, slaves := range res.SlaveSweep {
		for _, group := range cfg.groups() {
			for _, sampleSize := range cfg.SampleSizes {
				w, err := buildWorkload(cfg, pop, group, sampleSize, slaves)
				if err != nil {
					return nil, err
				}
				var mqeSim, cpsSim time.Duration
				var mqeAgg, cpsAgg mapreduce.Metrics
				for run := 0; run < cfg.Runs; run++ {
					seed := cfg.Seed + int64(run)*6151
					_, met, err := w.runMQE(seed)
					if err != nil {
						return nil, fmt.Errorf("figure7 MQE %s: %w", group.Name, err)
					}
					mqeSim += met.SimulatedTotal()
					mqeAgg.Add(met)
					cpsRes, err := w.runCPS(seed, cps.SolveOptions{})
					if err != nil {
						return nil, fmt.Errorf("figure7 CPS %s: %w", group.Name, err)
					}
					cpsSim += cpsRes.Metrics.SimulatedTotal() +
						cpsRes.LP.FormulateTime + cpsRes.LP.SolveTime
					cpsAgg.Add(cpsRes.Metrics)
				}
				mapF, combF, redF := phaseSplit(mqeAgg, w.cluster.Cost)
				res.Cells = append(res.Cells, Figure7Cell{
					Algorithm: "MQE", Slaves: slaves, Group: group.Name, SampleSize: sampleSize,
					Simulated: mqeSim / time.Duration(cfg.Runs),
					MapFrac:   mapF, CombFrac: combF, ReduceFrac: redF,
				})
				mapF, combF, redF = phaseSplit(cpsAgg, w.cluster.Cost)
				res.Cells = append(res.Cells, Figure7Cell{
					Algorithm: "CPS", Slaves: slaves, Group: group.Name, SampleSize: sampleSize,
					Simulated: cpsSim / time.Duration(cfg.Runs),
					MapFrac:   mapF, CombFrac: combF, ReduceFrac: redF,
				})
			}
		}
	}
	return res, nil
}

// phaseSplit recomputes, from measured record counts and the cost model, the
// fraction of per-record work done in the map, combine and reduce phases —
// the paper's 70/28/1 observation.
func phaseSplit(m mapreduce.Metrics, cost mapreduce.CostModel) (mapFrac, combFrac, reduceFrac float64) {
	mapW := float64(m.MapInputRecords) * float64(cost.MapPerRecord)
	combW := float64(m.CombineInputRecs) * float64(cost.CombinePerRecord)
	redW := float64(m.ReduceInputRecs) * float64(cost.ReducePerRecord)
	total := mapW + combW + redW
	if total == 0 {
		return 0, 0, 0
	}
	return mapW / total, combW / total, redW / total
}

// Speedup returns simulated-time(1 slave)/simulated-time(n slaves) for the
// algorithm and group at the first sample size — the scalability headline.
func (r *Figure7Result) Speedup(algorithm, group string, slaves int) float64 {
	var t1, tn time.Duration
	for _, c := range r.Cells {
		if c.Algorithm != algorithm || c.Group != group {
			continue
		}
		if c.Slaves == 1 && t1 == 0 {
			t1 = c.Simulated
		}
		if c.Slaves == slaves && tn == 0 {
			tn = c.Simulated
		}
	}
	if tn == 0 {
		return 0
	}
	return float64(t1) / float64(tn)
}

// Table renders the result.
func (r *Figure7Result) Table() *Table {
	t := &Table{
		Title:  "Figure 7: running times (virtual cluster clock)",
		Header: []string{"Alg[slaves]", "Group", "Sample", "Simulated", "map/comb/red"},
		Caption: "Paper: near-linear speed-up in slaves; ≈70%/28%/1% of the time in\n" +
			"the Mapper/Combiner/Reducer phases; CPS ≈ 3× MQE.",
	}
	for _, c := range r.Cells {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%s[%d]", c.Algorithm, c.Slaves),
			c.Group,
			fmt.Sprintf("%d", c.SampleSize),
			seconds(c.Simulated.Seconds()),
			fmt.Sprintf("%s/%s/%s", pct(c.MapFrac), pct(c.CombFrac), pct(c.ReduceFrac)),
		})
	}
	return t
}
