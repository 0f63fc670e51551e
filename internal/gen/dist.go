// Package gen generates the experimental workload of Section 6.1: a
// synthetic author population with the attribute schema and marginal
// distributions of Table 1 (Dagum, Burr XII and Power-function laws, sampled
// by inverse CDF), the Small/Medium/Large query groups of Section 6.1.2, and
// the penalty-based shared-survey cost tables the experiments use.
//
// Population generates in two phases: one goroutine draws every copula
// normal from the seed's stream in row order, then the inverse-CDF transform
// of those normals, a pure function of each row, runs on up to GOMAXPROCS
// goroutines. The population is byte-identical at any GOMAXPROCS.
package gen

import (
	"math"
	"math/rand"
)

// Distribution draws values by inverting a CDF at a uniform variate.
type Distribution interface {
	// Sample draws one value.
	Sample(rng *rand.Rand) float64
	// Quantile returns the value at cumulative probability u ∈ (0, 1).
	Quantile(u float64) float64
}

// Dagum is the Dagum distribution with shape parameters K and Alpha, scale
// Beta and location Gamma, as parameterised in Table 1. Its CDF is
// F(x) = (1 + ((x-γ)/β)^(-α))^(-k); the quantile function inverts it in
// closed form. Dagum laws are commonly used to model income — the paper uses
// them for paper-count attributes.
type Dagum struct {
	K     float64
	Alpha float64
	Beta  float64
	Gamma float64
}

// Quantile returns γ + β (u^(-1/k) − 1)^(-1/α).
func (d Dagum) Quantile(u float64) float64 {
	return d.Gamma + d.Beta*math.Pow(math.Pow(u, -1/d.K)-1, -1/d.Alpha)
}

// Sample draws one value.
func (d Dagum) Sample(rng *rand.Rand) float64 { return d.Quantile(openUniform(rng)) }

// Burr is the Burr type XII distribution with shape parameters K and Alpha,
// scale Beta and location Gamma. Its CDF is
// F(x) = 1 − (1 + ((x-γ)/β)^α)^(-k).
type Burr struct {
	K     float64
	Alpha float64
	Beta  float64
	Gamma float64
}

// Quantile returns γ + β ((1−u)^(-1/k) − 1)^(1/α).
func (b Burr) Quantile(u float64) float64 {
	return b.Gamma + b.Beta*math.Pow(math.Pow(1-u, -1/b.K)-1, 1/b.Alpha)
}

// Sample draws one value.
func (b Burr) Sample(rng *rand.Rand) float64 { return b.Quantile(openUniform(rng)) }

// PowerFunc is the power-function distribution on [A, B] with exponent
// Alpha: F(x) = ((x−a)/(b−a))^α. With α > 1 mass concentrates near B — the
// paper uses it for first/last publication years, which skew recent.
type PowerFunc struct {
	Alpha float64
	A     float64
	B     float64
}

// Quantile returns a + (b−a) u^(1/α).
func (p PowerFunc) Quantile(u float64) float64 {
	return p.A + (p.B-p.A)*math.Pow(u, 1/p.Alpha)
}

// Sample draws one value.
func (p PowerFunc) Sample(rng *rand.Rand) float64 { return p.Quantile(openUniform(rng)) }

// UniformInt draws integers uniformly from [Min, Max]; the synthetic
// no-correlation dataset of Section 6.2.1 uses it for every attribute.
type UniformInt struct {
	Min, Max int64
}

// Quantile maps u linearly onto the domain.
func (d UniformInt) Quantile(u float64) float64 {
	return float64(d.Min) + u*float64(d.Max-d.Min)
}

// Sample draws one value.
func (d UniformInt) Sample(rng *rand.Rand) float64 {
	return float64(d.Min + rng.Int63n(d.Max-d.Min+1))
}

// openUniform returns a uniform variate in the open interval (0, 1), safe
// for quantile functions that diverge at the endpoints.
func openUniform(rng *rand.Rand) float64 {
	for {
		u := rng.Float64()
		if u > 0 && u < 1 {
			return u
		}
	}
}

// ClampInt rounds x and clamps it into [min, max] — attribute domains are
// finite while the laws of Table 1 have unbounded tails. The rounded value is
// compared against int64's range in float64 before it is converted, since Go
// leaves the conversion of a value outside that range (±Inf included)
// implementation-defined: +Inf and a tail quantile like 1e300 clamp to max,
// -Inf and -1e300 to min, on every architecture. NaN clamps to min.
func ClampInt(x float64, min, max int64) int64 {
	r := math.Round(x)
	switch {
	case r >= 1<<63:
		return max
	case !(r >= -1<<63): // below int64's range, or NaN
		return min
	}
	v := int64(r)
	if v < min {
		return min
	}
	if v > max {
		return max
	}
	return v
}
