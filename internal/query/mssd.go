package query

import (
	"fmt"

	"repro/internal/dataset"
)

// MSSD is a multi-stratified-sample-design query (Q, C): a set of SSD queries
// conducted in parallel plus a shared-survey cost function.
type MSSD struct {
	Queries []*SSD
	Costs   Coster
}

// NewMSSD builds an MSSD query.
func NewMSSD(costs Coster, queries ...*SSD) *MSSD {
	return &MSSD{Queries: queries, Costs: costs}
}

// Validate checks the MSSD: at most MaxQueries SSDs, each valid over the
// schema, and a cost function present.
func (m *MSSD) Validate(schema *dataset.Schema) error {
	if len(m.Queries) == 0 {
		return fmt.Errorf("query: MSSD has no SSD queries")
	}
	if len(m.Queries) > MaxQueries {
		return fmt.Errorf("query: MSSD has %d SSDs, max %d", len(m.Queries), MaxQueries)
	}
	if m.Costs == nil {
		return fmt.Errorf("query: MSSD has no cost function")
	}
	for _, q := range m.Queries {
		if err := q.Validate(schema); err != nil {
			return err
		}
	}
	return nil
}

// TotalFreq returns the number of interview slots across all surveys
// (Σ_i Σ_k f_{i,k}) — the answer size when no sharing happens.
func (m *MSSD) TotalFreq() int {
	n := 0
	for _, q := range m.Queries {
		n += q.TotalFreq()
	}
	return n
}

// Answer is an answer to one SSD query: the sampled tuples per stratum index.
type Answer struct {
	// Strata holds, for stratum k of the query, the tuples selected for it.
	Strata [][]dataset.Tuple
	// Sizes holds, for stratum k, the population N_k the sample was drawn
	// from: the rows the pass could draw (after any exclusion). It is nil
	// where the answer's producer did not count its strata.
	Sizes []int64
}

// NewAnswer allocates an answer with one empty slot per stratum.
func NewAnswer(numStrata int) *Answer {
	return &Answer{Strata: make([][]dataset.Tuple, numStrata)}
}

// Union returns all tuples of the answer (the A_i = ∪_k A_{i,k} of the
// paper). Strata are disjoint, so no deduplication is needed.
func (a *Answer) Union() []dataset.Tuple {
	var out []dataset.Tuple
	for _, s := range a.Strata {
		out = append(out, s...)
	}
	return out
}

// Size returns the number of tuples in the answer.
func (a *Answer) Size() int {
	n := 0
	for _, s := range a.Strata {
		n += len(s)
	}
	return n
}

// Satisfies checks the answer against the query over the population: every
// stratum k holds exactly min(f_k, |σ_φk(R)|) tuples and each satisfies φ_k.
func (a *Answer) Satisfies(q *SSD, r *dataset.Relation) error {
	preds, err := q.Compile(r.Schema())
	if err != nil {
		return err
	}
	if len(a.Strata) != len(q.Strata) {
		return fmt.Errorf("query: answer has %d strata, query %s has %d", len(a.Strata), q.Name, len(q.Strata))
	}
	for k := range q.Strata {
		want := q.Strata[k].Freq
		if avail := r.Count(preds[k]); avail < want {
			want = avail
		}
		if got := len(a.Strata[k]); got != want {
			return fmt.Errorf("query %s stratum %d: got %d tuples, want %d", q.Name, k, got, want)
		}
		seen := make(map[int64]struct{}, len(a.Strata[k]))
		for i := range a.Strata[k] {
			t := &a.Strata[k][i]
			if !preds[k](t) {
				return fmt.Errorf("query %s stratum %d: tuple #%d does not satisfy %s", q.Name, k, t.ID, q.Strata[k].Cond)
			}
			if _, dup := seen[t.ID]; dup {
				return fmt.Errorf("query %s stratum %d: tuple #%d selected twice", q.Name, k, t.ID)
			}
			seen[t.ID] = struct{}{}
		}
	}
	return nil
}

// MultiAnswer is an answer set A = {A_1..A_n} for an MSSD query, indexed as
// the MSSD's Queries slice.
type MultiAnswer []*Answer

// Assignments computes τ(t) for every individual in union(A): the set of
// surveys each tuple ID is assigned to.
func (ma MultiAnswer) Assignments() map[int64]Tau {
	taus := make(map[int64]Tau)
	for qi, a := range ma {
		if a == nil {
			continue
		}
		for _, stratum := range a.Strata {
			for _, t := range stratum {
				taus[t.ID] = taus[t.ID].With(qi)
			}
		}
	}
	return taus
}

// Cost evaluates the total survey cost c_τ(A) = Σ_{t∈union(A)} c_{τ(t)}.
func (ma MultiAnswer) Cost(c Coster) float64 {
	var sum float64
	for _, tau := range ma.Assignments() {
		sum += c.Cost(tau)
	}
	return sum
}

// SharingHistogram returns, for i = 1..n, the number of individuals assigned
// to exactly i surveys — the data behind Figure 6 of the paper.
func (ma MultiAnswer) SharingHistogram() []int {
	hist := make([]int, len(ma)+1) // hist[i] = individuals in exactly i surveys; index 0 unused
	for _, tau := range ma.Assignments() {
		hist[tau.Size()]++
	}
	return hist
}

// UniqueIndividuals returns |union(A)|.
func (ma MultiAnswer) UniqueIndividuals() int {
	return len(ma.Assignments())
}
