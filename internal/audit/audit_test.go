package audit

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

func testSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
}

// genderPop builds a population with `men` men then `women` women. Incomes
// differ by gender so the stratification has something to buy the estimator.
func genderPop(men, women int) *dataset.Relation {
	r := dataset.NewRelation(testSchema())
	id := int64(0)
	for i := 0; i < men; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{1, 600 + id%200}})
		id++
	}
	for i := 0; i < women; i++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{0, 100 + id%200}})
		id++
	}
	return r
}

func genderSSD(fMen, fWomen int) *query.SSD {
	return query.NewSSD("gender",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: fMen},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: fWomen},
	)
}

func zeroCluster(slaves int) *mapreduce.Cluster {
	return &mapreduce.Cluster{Slaves: slaves, SlotsPerSlave: 1, Cost: mapreduce.ZeroCostModel()}
}

func splitsOf(t *testing.T, r *dataset.Relation, k int) []dataset.Split {
	t.Helper()
	splits, err := dataset.Partition(r, k, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	return splits
}

func TestAuditFillCleanRun(t *testing.T) {
	r := genderPop(30, 34)
	splits := splitsOf(t, r, 2)
	q := genderSSD(5, 6)
	ans, _, err := stratified.RunSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	pops, err := StratumPopulations(q, r.Schema(), splits)
	if err != nil {
		t.Fatal(err)
	}
	if pops[0] != 30 || pops[1] != 34 {
		t.Fatalf("populations = %v, want [30 34]", pops)
	}
	rep, err := AuditFill(q, ans, pops)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("clean run failed fill audit: %+v", rep.Rows)
	}
	if rep.MinFillRate() != 1 {
		t.Fatalf("min fill rate = %v, want 1", rep.MinFillRate())
	}
	for _, row := range rep.Rows {
		if row.Achieved != row.Required {
			t.Fatalf("stratum %s achieved %d, required %d", row.Stratum, row.Achieved, row.Required)
		}
	}
}

// TestAuditFillExhaustiveStratum: requesting more than the stratum holds is
// feasible-by-definition (take all), so the fill target shrinks to the
// population and the audit still passes.
func TestAuditFillExhaustiveStratum(t *testing.T) {
	r := genderPop(3, 10)
	splits := splitsOf(t, r, 2)
	q := genderSSD(5, 2) // only 3 men exist
	ans, _, err := stratified.RunSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	pops, err := StratumPopulations(q, r.Schema(), splits)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AuditFill(q, ans, pops)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Passed() {
		t.Fatalf("exhaustive stratum should pass: %+v", rep.Rows)
	}
	if got := rep.Rows[0].Target(); got != 3 {
		t.Fatalf("feasible target = %d, want 3", got)
	}
}

func TestFillRowVerdicts(t *testing.T) {
	short := FillRow{Stratum: "s", Required: 5, Achieved: 3, Population: 10}
	if short.Shortfall() != 2 || short.FillRate() != 0.6 {
		t.Fatalf("shortfall row: shortfall=%d rate=%v", short.Shortfall(), short.FillRate())
	}
	over := FillRow{Stratum: "s", Required: 5, Achieved: 7, Population: 10}
	if over.Overdraw() != 2 || over.Shortfall() != 0 {
		t.Fatalf("overdraw row: overdraw=%d", over.Overdraw())
	}
	unknown := FillRow{Stratum: "s", Required: 5, Achieved: 5, Population: -1}
	if unknown.Target() != 5 || unknown.FillRate() != 1 {
		t.Fatalf("unknown-population row: target=%d", unknown.Target())
	}
	rep := &FillReport{Rows: []FillRow{short}}
	if rep.Passed() {
		t.Fatal("report with shortfall must not pass")
	}
}

func TestBiasAuditSQEUnbiased(t *testing.T) {
	r := genderPop(12, 16)
	splits := splitsOf(t, r, 2)
	q := genderSSD(3, 4)
	rep, met, err := BiasAuditSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 7}, 40)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Runs != 40 {
		t.Fatalf("runs = %d, want 40", rep.Runs)
	}
	if len(rep.Strata) != 2 {
		t.Fatalf("strata = %d, want 2", len(rep.Strata))
	}
	if rep.Strata[0].Members != 12 || rep.Strata[1].Members != 16 {
		t.Fatalf("members = %d/%d, want 12/16", rep.Strata[0].Members, rep.Strata[1].Members)
	}
	// Algorithm 1 is uniform per stratum; across 40 independent runs the
	// inclusion chi-square should not reject at any sane threshold.
	if rep.MinP() < 1e-4 {
		t.Fatalf("unbiased sampler flagged: min p = %v", rep.MinP())
	}
	if !rep.Passed(1e-4) {
		t.Fatal("Passed(1e-4) = false for unbiased sampler")
	}
	// Each member is one inclusion-count observation.
	if got := rep.Strata[0].Inclusions.Count(); got != 12 {
		t.Fatalf("inclusion histogram count = %d, want 12", got)
	}
	// The combiner's reservoir_size series merged across runs: 3 non-empty
	// (task, stratum) reservoirs per run (the contiguous second split holds
	// only women) × 40 runs.
	if got := rep.ReservoirSizes.Count(); got != 120 {
		t.Fatalf("reservoir size observations = %d, want 120", got)
	}
	if met.Job != "audit:gender" {
		t.Fatalf("metrics job = %q", met.Job)
	}
	// 40 runs over 28 tuples on 2 splits.
	if met.MapInputRecords != 40*28 {
		t.Fatalf("accumulated map input = %d, want %d", met.MapInputRecords, 40*28)
	}
}

// TestBiasAuditDetectsBias: a deliberately skewed inclusion pattern (member 0
// always chosen, the rest evenly) must produce a tiny p-value.
func TestBiasAuditDetectsBias(t *testing.T) {
	r := genderPop(10, 0)
	splits := splitsOf(t, r, 1)
	q := query.NewSSD("biased",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 2},
	)
	acc, err := NewBiasAccumulator(q, r.Schema(), splits)
	if err != nil {
		t.Fatal(err)
	}
	// 60 fake runs: {0, 1+run%9} — member 0 in every draw.
	for run := 0; run < 60; run++ {
		ans := &query.Answer{Strata: [][]dataset.Tuple{{
			{ID: 0}, {ID: int64(1 + run%9)},
		}}}
		if err := acc.AddRun(ans, mapreduce.Metrics{}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := acc.Report()
	if err != nil {
		t.Fatal(err)
	}
	if rep.MinP() > 1e-6 {
		t.Fatalf("skewed inclusions not flagged: p = %v", rep.MinP())
	}
	if rep.Passed(1e-4) {
		t.Fatal("Passed must fail for a biased sampler")
	}
}

// TestBiasExhaustiveStratumTrivial: f_k ≥ |σ_k(R)| has one possible outcome,
// so the stratum is trivially unbiased (p = 1).
func TestBiasExhaustiveStratumTrivial(t *testing.T) {
	r := genderPop(3, 8)
	splits := splitsOf(t, r, 2)
	q := genderSSD(5, 2)
	rep, _, err := BiasAuditSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Strata[0].P != 1 || rep.Strata[0].Chi2 != 0 {
		t.Fatalf("exhaustive stratum p = %v chi2 = %v, want 1 / 0", rep.Strata[0].P, rep.Strata[0].Chi2)
	}
}

func exampleMSSD(f1m, f1f, f2lo, f2hi int) *query.MSSD {
	q1 := query.NewSSD("Q1",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: f1m},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: f1f},
	)
	q2 := query.NewSSD("Q2",
		query.Stratum{Cond: predicate.MustParse("income < 500"), Freq: f2lo},
		query.Stratum{Cond: predicate.MustParse("income >= 500"), Freq: f2hi},
	)
	return query.NewMSSD(query.PenaltyCosts{Interview: 1}, q1, q2)
}

func TestAuditCPS(t *testing.T) {
	r := genderPop(60, 60)
	splits := splitsOf(t, r, 3)
	m := exampleMSSD(6, 6, 6, 6)
	res, err := cps.Run(zeroCluster(3), m, r.Schema(), splits, cps.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	rep := AuditCPS(m, res)
	if rep.Surveys != 2 {
		t.Fatalf("surveys = %d", rep.Surveys)
	}
	// The LP objective lower-bounds any integral answer set.
	if rep.RealizedCost < rep.LPObjective-1e-9 {
		t.Fatalf("realized %.4f below LP bound %.4f", rep.RealizedCost, rep.LPObjective)
	}
	if rep.CostRatio() < 1-1e-9 {
		t.Fatalf("cost ratio %v < 1", rep.CostRatio())
	}
	// Sharing must not cost more than the naive per-survey baseline.
	if rep.RealizedCost > rep.InitialCost+1e-9 {
		t.Fatalf("realized %.4f exceeds MQE baseline %.4f", rep.RealizedCost, rep.InitialCost)
	}
	if rep.Savings() < 0 {
		t.Fatalf("negative savings %v", rep.Savings())
	}
	for i, s := range rep.PerSurvey {
		if s.Achieved != s.Required {
			t.Fatalf("survey %d achieved %d, required %d", i, s.Achieved, s.Required)
		}
		if s.PlannedSlots+s.ResidualSlots != s.Achieved {
			t.Fatalf("survey %d slots %d+%d != achieved %d",
				i, s.PlannedSlots, s.ResidualSlots, s.Achieved)
		}
	}
	// Equal-split plan shares reconstruct the rounded plan's total cost;
	// plan + residual pricing reconstructs the realized cost.
	var planCost, residCost float64
	for _, s := range rep.PerSurvey {
		planCost += s.PlanCost
		residCost += s.ResidualCost
	}
	if diff := planCost + residCost - rep.RealizedCost; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("attributed cost %.6f + %.6f != realized %.6f",
			planCost, residCost, rep.RealizedCost)
	}
	if frac := rep.ResidualFraction(); frac < 0 || frac > 1 {
		t.Fatalf("residual fraction %v out of range", frac)
	}
}

func TestAuditEstimator(t *testing.T) {
	r := genderPop(200, 200)
	splits := splitsOf(t, r, 2)
	q := genderSSD(20, 20)
	ans, _, err := stratified.RunSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := AuditEstimator(ans, q, r, "income")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attr != "income" {
		t.Fatalf("attr = %q", rep.Attr)
	}
	if rep.Stratified.SampleSize != 40 || rep.SRS.SampleSize != 40 {
		t.Fatalf("estimator sample sizes %d/%d, want 40/40", rep.Stratified.SampleSize, rep.SRS.SampleSize)
	}
	// Incomes are bimodal by gender (100–299 vs 600–799): stratifying on
	// gender removes the between-group variance, so the design effect must
	// show a clear win.
	if rep.DesignEffect >= 1 {
		t.Fatalf("design effect %v, want < 1 for gender-separated incomes", rep.DesignEffect)
	}
	if rep.Stratified.StdErr <= 0 || rep.Stratified.StdErr >= rep.SRS.StdErr {
		t.Fatalf("stratified stderr %v should be positive and below SRS %v",
			rep.Stratified.StdErr, rep.SRS.StdErr)
	}
}

func TestReportRenderAndPassed(t *testing.T) {
	r := genderPop(30, 34)
	splits := splitsOf(t, r, 2)
	q := genderSSD(5, 6)
	pops, err := StratumPopulations(q, r.Schema(), splits)
	if err != nil {
		t.Fatal(err)
	}
	bias, _, err := BiasAuditSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 1}, 10)
	if err != nil {
		t.Fatal(err)
	}
	ans, _, err := stratified.RunSQE(zeroCluster(2), q, r.Schema(), splits, stratified.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	fill, err := AuditFill(q, ans, pops)
	if err != nil {
		t.Fatal(err)
	}
	est, err := AuditEstimator(ans, q, r, "income")
	if err != nil {
		t.Fatal(err)
	}
	rep := &Report{Fill: fill, Bias: bias, Estimator: est}
	if !rep.Passed(1e-4) {
		t.Fatal("clean report must pass")
	}

	var buf bytes.Buffer
	rep.Render(&buf)
	out := buf.String()
	for _, want := range []string{
		"quality scorecard", "stratum", "required", "achieved", "fill",
		"bias p", "bias audit: 10 runs", "estimator health", "design effect",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered report missing %q:\n%s", want, out)
		}
	}

	// The report must survive a JSON round trip (it is the /quality payload
	// seed and the scorecard attachment).
	blob, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fill.Rows[0].Achieved != fill.Rows[0].Achieved || back.Bias.Runs != 10 {
		t.Fatal("JSON round trip lost report data")
	}

	hists := rep.Histograms()
	if hists["audit_fill_permille"] == nil || hists["audit_fill_permille"].Count() != 2 {
		t.Fatalf("fill histogram missing or wrong: %v", hists)
	}
	if hists["audit_inclusion_count"] == nil {
		t.Fatal("inclusion histogram missing")
	}
	if hists["audit_reservoir_size"] == nil {
		t.Fatal("reservoir histogram missing")
	}
}

func TestReportWritePrometheus(t *testing.T) {
	rep := &Report{
		Fill: &FillReport{Query: "q", Rows: []FillRow{
			{Stratum: "gender = 1", Required: 5, Achieved: 5, Population: 30},
		}},
		CPS: &CPSReport{
			Surveys: 1, LPObjective: 10, RealizedCost: 12,
			PlannedTuples: 9, ResidualTuples: 3,
			PerSurvey: []SurveyCost{{Survey: 0, Name: "Q1", PlanCost: 9, ResidualSlots: 3}},
		},
	}
	var a, b bytes.Buffer
	if err := rep.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("prometheus rendering not deterministic")
	}
	out := a.String()
	for _, want := range []string{
		`strata_audit_fill_rate{query="q",stratum="gender = 1"} 1`,
		"strata_audit_lp_objective 10",
		"strata_audit_realized_cost 12",
		`strata_audit_survey_residual_slots{survey="Q1"} 3`,
		"# TYPE strata_audit_fill_rate gauge",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Label values go through the one escaper (mapreduce.PromWriter).
	rep.Fill.Rows[0].Stratum = "a\nb\x01c"
	a.Reset()
	if err := rep.WritePrometheus(&a); err != nil {
		t.Fatal(err)
	}
	if want := `stratum="a\nb\\x01c"`; !strings.Contains(a.String(), want) {
		t.Fatalf("label not escaped: output lacks %s:\n%s", want, a.String())
	}
}
