package gen

import (
	"math/rand"

	"repro/internal/query"
)

// Default experiment cost parameters (Section 6.1.2): a $4 interview — the
// optimal survey-participation incentive the paper cites — and a $10 penalty
// on randomly chosen SSD pairs, so that undesired sharing costs more than
// two separate interviews.
const (
	DefaultInterviewCost = 4.0
	DefaultPenalty       = 10.0
)

// DefaultPenalisedPairs returns how many pairs DefaultPenaltyTable
// penalises for an n-survey MSSD: n−1. The paper penalises "randomly chosen
// pairs" without giving a count; a count growing linearly in n (so the
// penalised fraction of the quadratic pair space *falls* with group size)
// reproduces Table 2's trend: the Small group (2 of 3 pairs penalised)
// blocks most sharing (62%), while Large (8 of 36) leaves penalty-free
// cliques (47%). It also keeps Figure 6 possible — individuals shared
// across up to 9 surveys require penalty-free cliques.
func DefaultPenalisedPairs(n int) int { return n - 1 }

// PenaltyTableFixed penalises exactly `count` distinct pairs chosen
// uniformly (all pairs when count exceeds the number of pairs).
func PenaltyTableFixed(n int, interview, penalty float64, count int, rng *rand.Rand) query.PenaltyCosts {
	var pairs []query.Tau
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			pairs = append(pairs, query.NewTau(i, j))
		}
	}
	rng.Shuffle(len(pairs), func(a, b int) { pairs[a], pairs[b] = pairs[b], pairs[a] })
	if count > len(pairs) {
		count = len(pairs)
	}
	penalties := make(map[query.Tau]float64, count)
	for _, p := range pairs[:count] {
		penalties[p] = penalty
	}
	return query.PenaltyCosts{Interview: interview, Penalties: penalties}
}

// DefaultPenaltyTable is PenaltyTableFixed with the paper's $4/$10
// parameters and DefaultPenalisedPairs(n) penalised pairs.
func DefaultPenaltyTable(n int, rng *rand.Rand) query.PenaltyCosts {
	return PenaltyTableFixed(n, DefaultInterviewCost, DefaultPenalty, DefaultPenalisedPairs(n), rng)
}
