package cps

import (
	"context"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// Options configures an MR-CPS run.
type Options struct {
	// Seed makes the run reproducible; the pipeline's MapReduce jobs
	// derive their own seeds from it.
	Seed int64
	// Solve configures the constraint-program step (per-σ LP by default).
	Solve SolveOptions
	// Exclude removes individuals (by ID) from the whole pipeline — e.g.
	// participants of a previous survey campaign who must not be asked
	// again (survey fatigue across campaigns, not just within one MSSD).
	Exclude map[int64]struct{}
}

// LPStats reports the constraint-program step, feeding Figure 8.
type LPStats struct {
	FormulateTime time.Duration
	SolveTime     time.Duration
	Vars          int
	Constraints   int
	Selections    int
	Objective     float64 // C_LP (or C_IP in integer mode)
}

// Result is the outcome of an MR-CPS run.
type Result struct {
	// Answers is the final answer set A*.
	Answers query.MultiAnswer
	// Initial is the representative non-optimal answer A of step 1,
	// exposed for the representativeness tests.
	Initial query.MultiAnswer
	// Metrics accumulates all MapReduce jobs of the pipeline.
	Metrics mapreduce.Metrics
	// LP reports the constraint-program step.
	LP LPStats
	// PlannedTuples is the number of individuals the plan assigned
	// (Σ X_τ(σ)); ResidualTuples the number added by the residual phase to
	// cover rounding deficits. Their ratio is the §6.2.2 metric.
	PlannedTuples  int
	ResidualTuples int
	// PlannedPerSurvey and ResidualPerSurvey break the plan delivery down
	// by survey index: PlannedPerSurvey[i] counts interview slots of survey
	// i filled by dealt plan tuples (an individual shared across k surveys
	// counts once in each), ResidualPerSurvey[i] the slots topped up by the
	// residual phase. The audit layer uses them for per-survey rounding-
	// deficit attribution.
	PlannedPerSurvey  []int
	ResidualPerSurvey []int
	// Plan is the solved constraint program, for inspection (which
	// selections share how many individuals across which surveys).
	Plan *Plan
	// Stats holds the relevant selections [[Q]]* with F and L values.
	Stats *Stats
}

// Run answers the MSSD query with MR-CPS over the distributed population.
func Run(c *mapreduce.Cluster, m *query.MSSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (*Result, error) {
	if err := m.Validate(schema); err != nil {
		return nil, err
	}
	return run(c, m, schema, splits, opts)
}

func run(c *mapreduce.Cluster, m *query.MSSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (*Result, error) {
	queries := m.Queries
	n := len(queries)
	compiled, err := CompileQueries(queries, schema)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	logDebug := slog.Default().Enabled(context.Background(), slog.LevelDebug)

	// Step 1: representative non-optimal answer A (MR-MQE).
	initial, met, err := stratified.RunMQE(c, queries, schema, splits, stratified.Options{
		Seed:    opts.Seed + 1,
		Exclude: opts.Exclude,
	})
	if err != nil {
		return nil, fmt.Errorf("cps: initial answer: %w", err)
	}
	res.Initial = initial
	res.Metrics.Add(met)
	if logDebug {
		slog.Debug("cps step 1: initial MR-MQE answer",
			"queries", n, "shuffle_records", met.ShuffleRecords,
			"simulated", met.SimulatedTotal())
	}

	// Step 2: [[Q]]* and F(A_i, σ) from SSTs over the initial answers.
	tFormStart := time.Now()
	stats := CollectFrequencies(queries, initial, compiled)
	res.LP.Selections = len(stats.Entries)

	// Step 3: stratum-selection limits L(σ) (Figure 4 job).
	met, err = CountLimits(c, queries, schema, stats, splits, opts.Seed+2, opts.Exclude)
	if err != nil {
		return nil, fmt.Errorf("cps: limits: %w", err)
	}
	res.Metrics.Add(met)
	res.LP.FormulateTime = time.Since(tFormStart)
	if logDebug {
		slog.Debug("cps steps 2-3: selections and limits",
			"selections", res.LP.Selections, "formulate", res.LP.FormulateTime)
	}

	// Step 4: formulate and solve the constraint program of Figure 3.
	tSolveStart := time.Now()
	plan, err := SolvePlan(stats, m.Costs, opts.Solve)
	if err != nil {
		return nil, err
	}
	res.LP.SolveTime = time.Since(tSolveStart)
	res.LP.Vars = plan.Vars
	res.LP.Constraints = plan.Constraints
	res.LP.Objective = plan.Objective
	res.Plan = plan
	res.Stats = stats
	if logDebug {
		slog.Debug("cps step 4: constraint program solved",
			"vars", plan.Vars, "constraints", plan.Constraints,
			"objective", plan.Objective, "solve", res.LP.SolveTime)
	}

	// Step 5: answer the derived query Q′ — MR-SQE over the selections as
	// strata, f(σ) = Σ_τ X_τ(σ) — and deal tuples to surveys per X_τ(σ).
	want := plan.WantPerSelection()
	keys := stats.SortedKeys()
	sels := stats.selections(keys)
	freqs := make([]int, len(keys))
	for j, key := range keys {
		freqs[j] = want[key]
	}
	combined, met, err := stratified.SampleSelections(c, queries, schema, splits,
		sels, [][]int{freqs}, nil, opts.Exclude, opts.Seed+3)
	if err != nil {
		return nil, fmt.Errorf("cps: combined answer: %w", err)
	}
	res.Metrics.Add(met)
	if logDebug {
		slog.Debug("cps step 5: derived query answered",
			"classes", len(want), "shuffle_records", met.ShuffleRecords,
			"simulated", met.SimulatedTotal())
	}

	answers := make(query.MultiAnswer, n)
	chosen := make([]map[int64]struct{}, n) // per-survey selected IDs
	for i, q := range queries {
		answers[i] = query.NewAnswer(len(q.Strata))
		chosen[i] = make(map[int64]struct{})
	}
	res.PlannedPerSurvey = make([]int, n)
	res.ResidualPerSurvey = make([]int, n)
	dealt := make([][]int64, len(keys)) // per selection, per survey
	for j, key := range keys {
		dealt[j] = res.deal(plan.Assign[key], sels[j], combined[0][j], answers, chosen)
	}

	// Step 6: residual phase — top up each survey's per-selection deficit
	// (F(A_i, σ) minus what the rounded plan delivered) with fresh uniform
	// draws from σ(R) excluding the survey's already-chosen individuals:
	// MR-MQE over one derived query per survey.
	deficit := make([][]int, n) // per survey, per selection
	for i := range deficit {
		deficit[i] = make([]int, len(keys))
	}
	deficient := 0
	for j, key := range keys {
		for i, f := range stats.Entries[key].Freq {
			if f -= dealt[j][i]; f > 0 {
				deficit[i][j] = int(f)
				deficient++
			}
		}
	}
	if deficient > 0 {
		resid, met, err := stratified.SampleSelections(c, queries, schema, splits,
			sels, deficit, chosen, opts.Exclude, opts.Seed+4)
		if err != nil {
			return nil, fmt.Errorf("cps: residual phase: %w", err)
		}
		res.Metrics.Add(met)
		for i := range resid {
			for j, sample := range resid[i] {
				if len(sample) == 0 {
					continue // survey i may have no stratum in σ_j at all
				}
				stratum := sels[j][i]
				answers[i].Strata[stratum] = append(answers[i].Strata[stratum], sample...)
				for _, t := range sample {
					chosen[i][t.ID] = struct{}{}
				}
				res.ResidualTuples += len(sample)
				res.ResidualPerSurvey[i] += len(sample)
			}
		}
	}

	if logDebug {
		slog.Debug("cps step 6: residual phase done",
			"deficient_classes", deficient,
			"planned_tuples", res.PlannedTuples, "residual_tuples", res.ResidualTuples)
	}

	res.Answers = answers
	return res, nil
}

// deal hands pool, the combined sample of selection sel, to the surveys:
// X_τ(σ) individuals to every survey of each τ, in ascending τ order. It
// returns how many each survey received.
func (res *Result) deal(byTau map[query.Tau]int64, sel []int, pool []dataset.Tuple, answers query.MultiAnswer, chosen []map[int64]struct{}) []int64 {
	counts := make([]int64, len(answers))
	taus := make([]query.Tau, 0, len(byTau))
	for tau := range byTau {
		taus = append(taus, tau)
	}
	sort.Slice(taus, func(a, b int) bool { return taus[a] < taus[b] })
	for _, tau := range taus {
		take := byTau[tau]
		for take > 0 && len(pool) > 0 {
			t := pool[0]
			pool = pool[1:]
			take--
			res.PlannedTuples++
			for _, i := range tau.Indexes() {
				answers[i].Strata[sel[i]] = append(answers[i].Strata[sel[i]], t)
				chosen[i][t.ID] = struct{}{}
				counts[i]++
				res.PlannedPerSurvey[i]++
			}
		}
	}
	return counts
}
