package cps

import (
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stratified"
)

// Sequential runs the paper's Algorithm 2 (CPS) on a single machine, without
// MapReduce: the initial representative answer comes from the sequential
// reservoir sampler, frequencies and limits from in-memory scans, and the
// combined answer for Q′ from direct per-selection simple random samples.
// It is the reference implementation MR-CPS must agree with, and the
// cheapest way to answer an MSSD when the population fits in memory.
func Sequential(m *query.MSSD, r *dataset.Relation, rng *rand.Rand, solve SolveOptions) (*Result, error) {
	if err := m.Validate(r.Schema()); err != nil {
		return nil, err
	}
	queries := m.Queries
	n := len(queries)
	compiled, err := CompileQueries(queries, r.Schema())
	if err != nil {
		return nil, err
	}
	res := &Result{}

	// Step 1: representative non-optimal answer.
	initial, err := stratified.SequentialMulti(queries, r, rng)
	if err != nil {
		return nil, err
	}
	res.Initial = initial

	// Step 2+3: F(A_i, σ) and L(σ).
	stats := CollectFrequencies(queries, initial, compiled)
	res.LP.Selections = len(stats.Entries)
	if _, err := CountLimitsInMemory(r, compiled, stats.Entries); err != nil {
		return nil, err
	}

	// Step 4: the constraint program.
	plan, err := SolvePlan(stats, m.Costs, solve)
	if err != nil {
		return nil, err
	}
	res.LP.Vars = plan.Vars
	res.LP.Constraints = plan.Constraints
	res.LP.Objective = plan.Objective

	// Step 5: group the population by selection once, then draw the
	// combined answer per selection and deal to surveys.
	bySelection := make(map[string][]dataset.Tuple)
	tuples := r.Tuples()
	want := plan.WantPerSelection()
	for i := range tuples {
		sel := SelectionOf(&tuples[i], compiled)
		if sel.Empty() {
			continue
		}
		key := sel.Key()
		if _, needed := want[key]; needed {
			bySelection[key] = append(bySelection[key], tuples[i])
		}
	}
	answers := make(query.MultiAnswer, n)
	chosen := make([]map[int64]struct{}, n)
	for i, q := range queries {
		answers[i] = query.NewAnswer(len(q.Strata))
		chosen[i] = make(map[int64]struct{})
	}
	res.PlannedPerSurvey = make([]int, n)
	res.ResidualPerSurvey = make([]int, n)
	dealt := make(map[string][]int64, len(stats.Entries))
	for _, key := range stats.SortedKeys() {
		byTau := plan.Assign[key]
		if len(byTau) == 0 {
			continue
		}
		pool := sampling.SRS(bySelection[key], want[key], rng)
		dealt[key] = res.deal(byTau, stats.Entries[key].Sel, pool, answers, chosen)
	}

	// Step 6: residual top-up per (survey, selection) deficit.
	for _, key := range stats.SortedKeys() {
		e := stats.Entries[key]
		for i := 0; i < n; i++ {
			var got int64
			if counts, ok := dealt[key]; ok {
				got = counts[i]
			}
			d := int(e.Freq[i] - got)
			if d <= 0 {
				continue
			}
			var eligible []dataset.Tuple
			for _, t := range selectionMembers(r, compiled, key) {
				if _, taken := chosen[i][t.ID]; !taken {
					eligible = append(eligible, t)
				}
			}
			for _, t := range sampling.SRS(eligible, d, rng) {
				answers[i].Strata[e.Sel[i]] = append(answers[i].Strata[e.Sel[i]], t)
				chosen[i][t.ID] = struct{}{}
				res.ResidualTuples++
				res.ResidualPerSurvey[i]++
			}
		}
	}
	res.Answers = answers
	return res, nil
}

// selectionMembers returns the tuples of R whose maximal selection is key.
func selectionMembers(r *dataset.Relation, compiled [][]predicate.Pred, key string) []dataset.Tuple {
	var out []dataset.Tuple
	tuples := r.Tuples()
	for i := range tuples {
		if SelectionOf(&tuples[i], compiled).Key() == key {
			out = append(out, tuples[i])
		}
	}
	return out
}
