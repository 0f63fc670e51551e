package experiments

import (
	"fmt"

	"repro/internal/cps"
)

// Figure6Row is one query group's sharing profile: Share[i-1] is the
// fraction of individuals assigned to exactly i surveys (i = 1..9), averaged
// over runs; MQEShared is the fraction of individuals MR-MQE incidentally
// assigned to more than one survey (the paper reports it never exceeded 4%).
type Figure6Row struct {
	Group        string
	Share        []float64
	MeanSurveys  float64 // average number of surveys per selected individual
	MQEShared    float64
	MQESurveyAvg float64
}

// Figure6Result reproduces Figure 6: "For 1 ≤ i ≤ 9, the percentage of
// individuals assigned to i surveys by MR-CPS".
type Figure6Result struct {
	MaxSurveys int
	Rows       []Figure6Row
}

// Figure6 runs the sharing-profile experiment.
func Figure6(cfg Config) (*Figure6Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	pop := cfg.population()
	maxN := 0
	for _, g := range cfg.groups() {
		if g.N > maxN {
			maxN = g.N
		}
	}
	res := &Figure6Result{MaxSurveys: maxN}
	sampleSize := cfg.SampleSizes[0]
	for _, group := range cfg.groups() {
		w, err := buildWorkload(cfg, pop, group, sampleSize, cfg.Slaves)
		if err != nil {
			return nil, err
		}
		counts := make([]float64, maxN+1)
		var totalIndividuals, totalAssignments float64
		var mqeShared, mqeIndividuals, mqeAssignments float64
		for run := 0; run < cfg.Runs; run++ {
			seed := cfg.Seed + int64(run)*104729
			cpsRes, err := w.runCPS(seed, cps.SolveOptions{})
			if err != nil {
				return nil, fmt.Errorf("figure6 %s run %d: %w", group.Name, run, err)
			}
			hist := cpsRes.Answers.SharingHistogram()
			for i := 1; i < len(hist) && i <= maxN; i++ {
				counts[i] += float64(hist[i])
				totalIndividuals += float64(hist[i])
				totalAssignments += float64(i * hist[i])
			}
			mqeHist := cpsRes.Initial.SharingHistogram()
			for i := 1; i < len(mqeHist); i++ {
				mqeIndividuals += float64(mqeHist[i])
				mqeAssignments += float64(i * mqeHist[i])
				if i > 1 {
					mqeShared += float64(mqeHist[i])
				}
			}
		}
		row := Figure6Row{Group: group.Name, Share: make([]float64, maxN)}
		for i := 1; i <= maxN; i++ {
			row.Share[i-1] = counts[i] / totalIndividuals
		}
		row.MeanSurveys = totalAssignments / totalIndividuals
		row.MQEShared = mqeShared / mqeIndividuals
		row.MQESurveyAvg = mqeAssignments / mqeIndividuals
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the result.
func (r *Figure6Result) Table() *Table {
	header := []string{"Group"}
	for i := 1; i <= r.MaxSurveys; i++ {
		header = append(header, fmt.Sprintf("i=%d", i))
	}
	header = append(header, "mean", "MQE shared")
	t := &Table{
		Title:  "Figure 6: % of individuals assigned to i surveys by MR-CPS",
		Header: header,
		Caption: "Paper: MR-CPS assigns each individual to ≈2 surveys on average;\n" +
			"MR-MQE's incidental sharing never exceeded 4%.",
	}
	for _, row := range r.Rows {
		cells := []string{row.Group}
		for _, s := range row.Share {
			cells = append(cells, pct(s))
		}
		cells = append(cells, num(row.MeanSurveys), pct1(row.MQEShared))
		t.Rows = append(t.Rows, cells)
	}
	return t
}
