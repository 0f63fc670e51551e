package cps

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// Campaign runs a sequence of MSSD queries ("waves") over the same
// population, automatically excluding every previously surveyed individual
// from later waves — the cross-campaign survey-fatigue policy. Each wave is
// answered by MR-CPS with the accumulated exclusion set.
type Campaign struct {
	cluster *mapreduce.Cluster
	schema  *dataset.Schema
	splits  []dataset.Split
	// Surveyed accumulates the IDs of everyone selected so far.
	Surveyed map[int64]struct{}
	// Waves holds each wave's result, in order.
	Waves []*Result
}

// NewCampaign prepares a campaign over the distributed population.
func NewCampaign(cluster *mapreduce.Cluster, schema *dataset.Schema, splits []dataset.Split) *Campaign {
	return &Campaign{
		cluster:  cluster,
		schema:   schema,
		splits:   splits,
		Surveyed: make(map[int64]struct{}),
	}
}

// RunWave answers one MSSD with everyone from earlier waves excluded, and
// records its participants. opts.Exclude is merged with the campaign's
// accumulated set.
func (c *Campaign) RunWave(m *query.MSSD, opts Options) (*Result, error) {
	merged := make(map[int64]struct{}, len(c.Surveyed)+len(opts.Exclude))
	for id := range c.Surveyed {
		merged[id] = struct{}{}
	}
	for id := range opts.Exclude {
		merged[id] = struct{}{}
	}
	opts.Exclude = merged
	res, err := Run(c.cluster, m, c.schema, c.splits, opts)
	if err != nil {
		return nil, fmt.Errorf("cps: wave %d: %w", len(c.Waves)+1, err)
	}
	for id := range res.Answers.Assignments() {
		c.Surveyed[id] = struct{}{}
	}
	c.Waves = append(c.Waves, res)
	return res, nil
}

// TotalSurveyed returns how many distinct individuals all waves touched.
func (c *Campaign) TotalSurveyed() int { return len(c.Surveyed) }
