package stratified

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
)

// The paper's introduction defines stratified sampling as selecting "a
// predefined number (or percentage) of individuals ... from each stratum".
// Absolute frequencies are the core representation; this file provides the
// percentage form, which requires one extra counting pass to learn the
// stratum sizes before sampling.

// PercentStratum is a stratum constraint whose sample size is a percentage
// of the stratum's population instead of an absolute count.
type PercentStratum struct {
	// Cond is the stratum condition φ_k.
	Cond predicate.Expr
	// Percent is the required sampling fraction in percent, in (0, 100].
	Percent float64
}

// PercentSSD is an SSD query with percentage frequencies.
type PercentSSD struct {
	Name   string
	Strata []PercentStratum
}

// Validate checks percentages are in range and the induced SSD (with dummy
// frequencies) is valid — i.e. strata are pairwise disjoint.
func (q *PercentSSD) Validate(schema *dataset.Schema) error {
	for i, s := range q.Strata {
		if s.Percent <= 0 || s.Percent > 100 {
			return fmt.Errorf("query %s stratum %d: percentage %g outside (0, 100]", q.Name, i, s.Percent)
		}
	}
	return q.skeleton(nil).Validate(schema)
}

// skeleton builds the absolute-frequency SSD; freqs may be nil (all zero).
func (q *PercentSSD) skeleton(freqs []int) *query.SSD {
	strata := make([]query.Stratum, len(q.Strata))
	for i, s := range q.Strata {
		f := 0
		if freqs != nil {
			f = freqs[i]
		}
		strata[i] = query.Stratum{Cond: s.Cond, Freq: f}
	}
	return query.NewSSD(q.Name, strata...)
}

// CountStrata runs one MapReduce pass counting |σ_φk(R)| for every stratum
// of the query (its frequencies are ignored): a stratum is the one-query
// selection naming it.
func CountStrata(c *mapreduce.Cluster, q *query.SSD, schema *dataset.Schema, splits []dataset.Split, seed int64) ([]int64, mapreduce.Metrics, error) {
	sels := make([][]int, len(q.Strata))
	for k := range sels {
		sels[k] = []int{k}
	}
	return CountSelections(c, []*query.SSD{q}, schema, splits, sels, nil, seed)
}

// Absolutize converts the percentage query into an absolute-frequency SSD by
// counting stratum sizes with one MapReduce pass: f_k = ⌈percent·|σ_φk(R)|⌉
// (at least 1 for non-empty strata, so tiny strata are represented — the
// point of stratified sampling).
func (q *PercentSSD) Absolutize(c *mapreduce.Cluster, schema *dataset.Schema, splits []dataset.Split, seed int64) (*query.SSD, mapreduce.Metrics, error) {
	skeleton := q.skeleton(nil)
	counts, met, err := CountStrata(c, skeleton, schema, splits, seed)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	freqs := make([]int, len(q.Strata))
	for k, s := range q.Strata {
		if counts[k] == 0 {
			continue
		}
		f := int(math.Ceil(s.Percent / 100 * float64(counts[k])))
		if f < 1 {
			f = 1
		}
		freqs[k] = f
	}
	return q.skeleton(freqs), met, nil
}

// RunPercentSQE answers a percentage SSD query: one counting pass to resolve
// the frequencies, then MR-SQE. Metrics accumulate both jobs.
func RunPercentSQE(c *mapreduce.Cluster, q *PercentSSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (*query.Answer, *query.SSD, mapreduce.Metrics, error) {
	resolved, met, err := q.Absolutize(c, schema, splits, opts.Seed)
	if err != nil {
		return nil, nil, mapreduce.Metrics{}, err
	}
	ans, met2, err := RunSQE(c, resolved, schema, splits, opts)
	if err != nil {
		return nil, nil, mapreduce.Metrics{}, err
	}
	met.Add(met2)
	return ans, resolved, met, nil
}
