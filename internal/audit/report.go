package audit

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Report is one run's complete quality scorecard. Sections are optional:
// a plain MR-SQE audit carries Fill+Bias (and possibly Estimator), an
// MR-CPS audit adds CPS.
type Report struct {
	Fill      *FillReport      `json:"fill,omitempty"`
	Bias      *BiasReport      `json:"bias,omitempty"`
	CPS       *CPSReport       `json:"cps,omitempty"`
	Estimator *EstimatorReport `json:"estimator,omitempty"`
}

// Passed aggregates the per-section verdicts: full fill, no bias p-value
// below alpha.
func (r *Report) Passed(alpha float64) bool {
	if r.Fill != nil && !r.Fill.Passed() {
		return false
	}
	if r.Bias != nil && !r.Bias.Passed(alpha) {
		return false
	}
	return true
}

// Render writes the human-readable quality scorecard: the per-stratum fill
// table with the chi-square bias column, then the CPS cost accounting and
// estimator health when present.
func (r *Report) Render(w io.Writer) {
	if r.Fill != nil {
		fmt.Fprintf(w, "quality scorecard — %s\n", r.Fill.Query)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		header := "stratum\trequired\tachieved\tfill\tshortfall\toverdraw"
		if r.Bias != nil {
			header += "\tbias χ²\tbias p"
		}
		fmt.Fprintln(tw, header)
		for i, row := range r.Fill.Rows {
			line := fmt.Sprintf("%s\t%d\t%d\t%.1f%%\t%d\t%d",
				row.Stratum, row.Required, row.Achieved, 100*row.FillRate(),
				row.Shortfall(), row.Overdraw())
			if r.Bias != nil && i < len(r.Bias.Strata) {
				b := r.Bias.Strata[i]
				line += fmt.Sprintf("\t%.1f\t%.4f", b.Chi2, b.P)
			}
			fmt.Fprintln(tw, line)
		}
		tw.Flush()
	}
	if r.Bias != nil {
		fmt.Fprintf(w, "bias audit: %d runs, min p = %.4f", r.Bias.Runs, r.Bias.MinP())
		if r.Bias.ReservoirSizes.Count() > 0 {
			fmt.Fprintf(w, "; intermediate samples %s", r.Bias.ReservoirSizes.String())
		}
		fmt.Fprintln(w)
	}
	if r.CPS != nil {
		c := r.CPS
		fmt.Fprintf(w, "\nCPS cost accounting (%d surveys)\n", c.Surveys)
		fmt.Fprintf(w, "  LP objective C_LP:  $%.2f\n", c.LPObjective)
		fmt.Fprintf(w, "  realized cost:      $%.2f  (%.3f× the LP bound)\n", c.RealizedCost, c.CostRatio())
		fmt.Fprintf(w, "  MQE baseline cost:  $%.2f  (CPS saves %.1f%%)\n", c.InitialCost, 100*c.Savings())
		fmt.Fprintf(w, "  planned individuals: %d   residual top-ups: %d (%.2f%% of delivered)\n",
			c.PlannedTuples, c.ResidualTuples, 100*c.ResidualFraction())
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  survey\trequired\tachieved\tplanned\tresidual\tplan cost\tresidual cost")
		for _, s := range c.PerSurvey {
			fmt.Fprintf(tw, "  %s\t%d\t%d\t%d\t%d\t$%.2f\t$%.2f\n",
				s.Name, s.Required, s.Achieved, s.PlannedSlots, s.ResidualSlots, s.PlanCost, s.ResidualCost)
		}
		tw.Flush()
	}
	if r.Estimator != nil {
		e := r.Estimator
		fmt.Fprintf(w, "\nestimator health — mean %s\n", e.Attr)
		fmt.Fprintf(w, "  stratified: %s\n", e.Stratified)
		fmt.Fprintf(w, "  SRS (same size): %s\n", e.SRS)
		verdict := "stratification pays"
		if e.DesignEffect >= 1 {
			verdict = "stratification does not pay for this attribute"
		}
		fmt.Fprintf(w, "  design effect: %.3f (%s)\n", e.DesignEffect, verdict)
	}
}
