// Package estimate provides the survey-statistics layer that motivates
// stratified sampling in the paper's Example 1: estimating population
// quantities from a stratified sample, comparing the estimator's precision
// with simple random sampling, and allocating sample sizes to strata
// (proportional and Neyman-optimal allocation). This is what lets "the
// sample be as small as possible, yet representative" — a smaller stratified
// sample matches the precision of a larger simple random sample whenever
// strata are internally homogeneous.
package estimate

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/stats"
)

// StratumSummary describes one stratum for estimation: its population size
// N_k and the sampled values drawn from it.
type StratumSummary struct {
	PopSize int64
	Values  []float64
}

// Mean is an estimate with its standard error.
type Mean struct {
	Estimate float64
	// StdErr is the estimated standard error, with finite-population
	// correction.
	StdErr float64
	// SampleSize is the total number of sampled individuals used.
	SampleSize int
}

// String renders the estimate as "x ± 2·se".
func (m Mean) String() string {
	return fmt.Sprintf("%.3f ± %.3f (n=%d)", m.Estimate, 2*m.StdErr, m.SampleSize)
}

// StratifiedMean estimates the population mean from a stratified sample:
// x̄_st = Σ W_k x̄_k with W_k = N_k/N, and variance Σ W_k² (1−f_k) s_k²/n_k
// (f_k the sampling fraction). Strata with fewer than one sampled value are
// an error; strata with a single value contribute zero variance (their
// within-stratum variance is unidentifiable).
func StratifiedMean(strata []StratumSummary) (Mean, error) {
	var totalPop int64
	for _, s := range strata {
		if s.PopSize < int64(len(s.Values)) {
			return Mean{}, fmt.Errorf("estimate: stratum samples %d exceed population %d", len(s.Values), s.PopSize)
		}
		totalPop += s.PopSize
	}
	if totalPop == 0 {
		return Mean{}, fmt.Errorf("estimate: empty population")
	}
	var est, variance float64
	n := 0
	for _, s := range strata {
		if s.PopSize == 0 {
			continue
		}
		if len(s.Values) == 0 {
			return Mean{}, fmt.Errorf("estimate: stratum with population %d has no sampled values", s.PopSize)
		}
		w := float64(s.PopSize) / float64(totalPop)
		est += w * stats.Mean(s.Values)
		n += len(s.Values)
		if len(s.Values) > 1 {
			f := float64(len(s.Values)) / float64(s.PopSize)
			variance += w * w * (1 - f) * stats.Variance(s.Values) / float64(len(s.Values))
		}
	}
	return Mean{Estimate: est, StdErr: math.Sqrt(variance), SampleSize: n}, nil
}

// SRSMean estimates the population mean from a simple random sample of a
// population of size popSize: x̄ with variance (1−f) s²/n.
func SRSMean(values []float64, popSize int64) (Mean, error) {
	if len(values) == 0 {
		return Mean{}, fmt.Errorf("estimate: empty sample")
	}
	if popSize < int64(len(values)) {
		return Mean{}, fmt.Errorf("estimate: sample %d exceeds population %d", len(values), popSize)
	}
	f := float64(len(values)) / float64(popSize)
	variance := (1 - f) * stats.Variance(values) / float64(len(values))
	return Mean{Estimate: stats.Mean(values), StdErr: math.Sqrt(variance), SampleSize: len(values)}, nil
}

// FromAnswer converts a query answer into stratum summaries for the named
// attribute, each stratum's population the size the answer carries
// (query.Answer.Sizes). An answer without a size per stratum is an error: a
// missing size is not an empty stratum.
func FromAnswer(ans *query.Answer, schema *dataset.Schema, attr string) ([]StratumSummary, error) {
	idx, ok := schema.Index(attr)
	if !ok {
		return nil, fmt.Errorf("estimate: unknown attribute %q", attr)
	}
	if len(ans.Sizes) != len(ans.Strata) {
		return nil, fmt.Errorf("estimate: the answer has %d strata and %d stratum sizes", len(ans.Strata), len(ans.Sizes))
	}
	out := make([]StratumSummary, len(ans.Strata))
	for k, sample := range ans.Strata {
		out[k].PopSize = ans.Sizes[k]
		for _, t := range sample {
			out[k].Values = append(out[k].Values, float64(t.Attrs[idx]))
		}
	}
	return out, nil
}

// Allocation assigns per-stratum sample sizes for a total budget n.
type Allocation []int

// Proportional allocates n_k ∝ N_k (at least 1 per non-empty stratum).
func Proportional(popSizes []int64, n int) Allocation {
	return allocate(popSizes, nil, n)
}

// Neyman allocates n_k ∝ N_k·S_k, the variance-minimising allocation for a
// fixed total sample size (Neyman 1934); stdevs are per-stratum standard
// deviations, typically from a pilot sample.
func Neyman(popSizes []int64, stdevs []float64, n int) Allocation {
	return allocate(popSizes, stdevs, n)
}

func allocate(popSizes []int64, stdevs []float64, n int) Allocation {
	weights := make([]float64, len(popSizes))
	var total float64
	for k, N := range popSizes {
		w := float64(N)
		if stdevs != nil {
			w *= stdevs[k]
		}
		weights[k] = w
		total += w
	}
	alloc := make(Allocation, len(popSizes))
	if total == 0 || n <= 0 {
		return alloc
	}
	assigned := 0
	type rem struct {
		k    int
		frac float64
	}
	var rems []rem
	for k, w := range weights {
		exact := float64(n) * w / total
		alloc[k] = int(exact)
		if popSizes[k] > 0 && alloc[k] == 0 {
			alloc[k] = 1 // every non-empty stratum stays represented
		}
		if int64(alloc[k]) > popSizes[k] {
			alloc[k] = int(popSizes[k])
		}
		assigned += alloc[k]
		rems = append(rems, rem{k, exact - math.Floor(exact)})
	}
	// Distribute the remainder by largest fractional part.
	for assigned < n {
		best := -1
		for i, r := range rems {
			if int64(alloc[r.k]) >= popSizes[r.k] {
				continue
			}
			if best < 0 || r.frac > rems[best].frac {
				best = i
			}
		}
		if best < 0 {
			break // every stratum exhausted
		}
		alloc[rems[best].k]++
		rems[best].frac = -1
		assigned++
	}
	return alloc
}

// ToSSD attaches the allocation to the conditions of a template query,
// producing a runnable SSD.
func (a Allocation) ToSSD(name string, conds []query.Stratum) (*query.SSD, error) {
	if len(a) != len(conds) {
		return nil, fmt.Errorf("estimate: allocation has %d strata, template has %d", len(a), len(conds))
	}
	strata := make([]query.Stratum, len(a))
	for k := range a {
		strata[k] = query.Stratum{Cond: conds[k].Cond, Freq: a[k]}
	}
	return query.NewSSD(name, strata...), nil
}

// DesignEffect is Var(stratified)/Var(SRS) at equal sample size: below 1
// means stratification pays (Kish's deff, inverted convention kept explicit
// in the name).
func DesignEffect(stratified, srs Mean) float64 {
	if srs.StdErr == 0 {
		return math.Inf(1)
	}
	r := stratified.StdErr / srs.StdErr
	return r * r
}
