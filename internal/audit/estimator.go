package audit

import (
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/query"
)

// EstimatorReport is the estimator-health section of a quality report: is
// the delivered sample statistically useful for the attribute it will
// estimate? It carries the stratified-mean estimate with its standard error
// and the design effect against a same-size simple random sample — below 1
// means the stratification is buying precision (Example 1's promise).
type EstimatorReport struct {
	// Attr is the audited numeric attribute.
	Attr string `json:"attr"`
	// Stratified is the stratified estimate x̄_st ± se from the sample.
	Stratified estimate.Mean `json:"stratified"`
	// SRS is the simple-random-sampling benchmark at the same sample size,
	// with the pooled sample standing in for an SRS draw (the standard
	// design-effect denominator approximation).
	SRS estimate.Mean `json:"srs"`
	// DesignEffect is Var(stratified)/Var(SRS) at equal size (Kish's deff).
	DesignEffect float64 `json:"design_effect"`
}

// AuditEstimator grades the answer's usefulness for estimating the mean of
// attr over the population the answer was drawn from, whose strata's sizes
// the answer carries.
func AuditEstimator(ans *query.Answer, schema *dataset.Schema, attr string) (*EstimatorReport, error) {
	sums, err := estimate.FromAnswer(ans, schema, attr)
	if err != nil {
		return nil, err
	}
	strat, err := estimate.StratifiedMean(sums)
	if err != nil {
		return nil, err
	}
	var pooled []float64
	var totalPop int64
	for _, s := range sums {
		pooled = append(pooled, s.Values...)
		totalPop += s.PopSize
	}
	srs, err := estimate.SRSMean(pooled, totalPop)
	if err != nil {
		return nil, err
	}
	return &EstimatorReport{
		Attr:         attr,
		Stratified:   strat,
		SRS:          srs,
		DesignEffect: estimate.DesignEffect(strat, srs),
	}, nil
}
