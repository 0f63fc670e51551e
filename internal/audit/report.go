package audit

import (
	"fmt"
	"io"
	"text/tabwriter"

	"repro/internal/mapreduce"
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

// Histograms exports the audit's distributions in the engine's histogram
// form, keyed like Metrics.Custom series: fold them into the process
// metrics (Metrics.Add) and they travel the existing JSON and Prometheus
// export paths unchanged.
func (r *Report) Histograms() map[string]*mapreduce.Histogram {
	out := make(map[string]*mapreduce.Histogram)
	if r.Fill != nil {
		h := &mapreduce.Histogram{}
		for _, row := range r.Fill.Rows {
			h.Observe(int64(1000 * row.FillRate())) // permille, log₂ buckets
		}
		out["audit_fill_permille"] = h
	}
	if r.Bias != nil {
		inc := &mapreduce.Histogram{}
		for _, s := range r.Bias.Strata {
			inc.Merge(s.Inclusions)
		}
		if inc.Count() > 0 {
			out["audit_inclusion_count"] = inc
		}
		if r.Bias.ReservoirSizes.Count() > 0 {
			rs := r.Bias.ReservoirSizes
			out["audit_reservoir_size"] = &rs
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// WritePrometheus renders the report as gauges in the Prometheus text
// exposition format — the body of the CLI's /quality endpoint. Output order
// is deterministic.
func (r *Report) WritePrometheus(w io.Writer) error {
	pw := mapreduce.NewPromWriter(w)
	if f := r.Fill; f != nil {
		pw.Family("strata_audit_fill_rate", "gauge", "Achieved/feasible-required sample size per stratum.")
		for _, row := range f.Rows {
			pw.Sample("strata_audit_fill_rate", row.FillRate(), "query", f.Query, "stratum", row.Stratum)
		}
		pw.Family("strata_audit_achieved", "gauge", "Achieved sample size per stratum.")
		for _, row := range f.Rows {
			pw.Sample("strata_audit_achieved", row.Achieved, "query", f.Query, "stratum", row.Stratum)
		}
		pw.Family("strata_audit_required", "gauge", "Required frequency f_k per stratum.")
		for _, row := range f.Rows {
			pw.Sample("strata_audit_required", row.Required, "query", f.Query, "stratum", row.Stratum)
		}
	}
	if b := r.Bias; b != nil {
		pw.Family("strata_audit_bias_p", "gauge", "Chi-square p-value of per-stratum inclusion uniformity.")
		for _, s := range b.Strata {
			pw.Sample("strata_audit_bias_p", s.P, "query", b.Query, "stratum", s.Stratum)
		}
		pw.Family("strata_audit_bias_runs", "gauge", "Runs accumulated by the bias audit.")
		pw.Sample("strata_audit_bias_runs", b.Runs, "query", b.Query)
	}
	if c := r.CPS; c != nil {
		pw.Gauge("strata_audit_lp_objective", "C_LP, the constraint-program lower bound.", c.LPObjective)
		pw.Gauge("strata_audit_realized_cost", "Realized survey cost of the delivered answer set.", c.RealizedCost)
		pw.Gauge("strata_audit_residual_tuples", "Individuals added by the residual phase.", c.ResidualTuples)
		pw.Gauge("strata_audit_planned_tuples", "Individuals delivered by the rounded plan.", c.PlannedTuples)
		pw.Family("strata_audit_survey_plan_cost", "gauge", "Equal-split plan cost attributed to one survey.")
		for _, s := range c.PerSurvey {
			pw.Sample("strata_audit_survey_plan_cost", s.PlanCost, "survey", s.Name)
		}
		pw.Family("strata_audit_survey_residual_slots", "gauge", "Residual top-up slots per survey.")
		for _, s := range c.PerSurvey {
			pw.Sample("strata_audit_survey_residual_slots", s.ResidualSlots, "survey", s.Name)
		}
	}
	if e := r.Estimator; e != nil {
		pw.Family("strata_audit_stratified_stderr", "gauge", "Standard error of the stratified mean estimator.")
		pw.Sample("strata_audit_stratified_stderr", e.Stratified.StdErr, "attr", e.Attr)
		pw.Family("strata_audit_design_effect", "gauge", "Var(stratified)/Var(SRS) at equal sample size.")
		pw.Sample("strata_audit_design_effect", e.DesignEffect, "attr", e.Attr)
	}
	return pw.Err
}
