package cps

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/lp"
	"repro/internal/query"
)

// SolveOptions configures the constraint-program step of CPS.
type SolveOptions struct {
	// Integer solves the exact integer program of Figure 3 (branch and
	// bound) instead of the LP relaxation — the paper's CPS rather than
	// MR-CPS.
	Integer bool
}

// roundEpsilon is added before flooring LP values to absorb solver
// quantisation error; the paper uses 1e-4.
const roundEpsilon = 1e-4

// Plan is the solved constraint program: for every relevant selection σ, the
// integral number of individuals X_τ(σ) to draw from σ(R) and assign to
// exactly the surveys of τ.
type Plan struct {
	// Assign maps a selection key to its per-τ assignment counts.
	Assign map[string]map[query.Tau]int64
	// Objective is the relaxation optimum before rounding (the C_LP of
	// Section 6.2.2; equal to C_IP when Integer is set).
	Objective float64
	// Vars and Constraints count the formulated program's size.
	Vars, Constraints int
}

// WantPerSelection returns f(σ) = Σ_τ X_τ(σ) for every selection: the sample
// frequency of the derived query Q′.
func (p *Plan) WantPerSelection() map[string]int {
	out := make(map[string]int, len(p.Assign))
	for key, byTau := range p.Assign {
		var sum int64
		for _, x := range byTau {
			sum += x
		}
		if sum > 0 {
			out[key] = int(sum)
		}
	}
	return out
}

// Assigned returns Σ_{τ∋i} X_τ(σ): how many individuals the plan assigns to
// survey i from selection σ.
func (p *Plan) Assigned(key string, i int) int64 {
	var sum int64
	for tau, x := range p.Assign[key] {
		if tau.Contains(i) {
			sum += x
		}
	}
	return sum
}

// Describe renders the plan's non-zero assignments as human-readable lines
// ("{s1,2, s2,1}: 3 → surveys {1,2}"), in deterministic order — the CLI's
// -explain output.
func (p *Plan) Describe(stats *Stats) []string {
	keys := make([]string, 0, len(p.Assign))
	for key := range p.Assign {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []string
	for _, key := range keys {
		e, ok := stats.Entries[key]
		if !ok {
			continue
		}
		byTau := p.Assign[key]
		taus := make([]query.Tau, 0, len(byTau))
		for tau := range byTau {
			taus = append(taus, tau)
		}
		sort.Slice(taus, func(a, b int) bool { return taus[a] < taus[b] })
		for _, tau := range taus {
			out = append(out, fmt.Sprintf("%s: %d individuals → surveys %s (of L=%d)",
				e.Sel, byTau[tau], tau, e.Limit))
		}
	}
	return out
}

// SolvePlan formulates the constraint program of Figure 3 for the collected
// statistics and solves it, one independent program per relevant selection
// (every constraint of Figure 3 touches a single σ, so the decomposition is
// exact). The blocks are spread over GOMAXPROCS goroutines.
func SolvePlan(stats *Stats, costs query.Coster, opts SolveOptions) (*Plan, error) {
	return solve(stats, costs, opts, runtime.GOMAXPROCS(0))
}

// varsFor enumerates the decision variables of one selection: every
// non-empty τ ⊆ I(σ), in ascending mask order (deterministic).
func varsFor(sel Selection) []query.Tau {
	var taus []query.Tau
	sel.Tau().Subsets(func(t query.Tau) bool {
		taus = append(taus, t)
		return true
	})
	return taus
}

// buildBlock formulates one selection's program over the variables taus.
func buildBlock(e *SelEntry, taus []query.Tau, costs query.Coster) (*lp.Problem, error) {
	nv := len(taus)
	p := lp.NewProblem(nv)
	p.Names = make([]string, nv)
	for v, tau := range taus {
		p.Obj[v] = costs.Cost(tau)
		p.Names[v] = fmt.Sprintf("X%s(%s)", tau, e.Sel)
	}
	// Equivalence constraints: ∀ i ∈ I(σ): Σ_{τ∋i} X_τ = F(A_i, σ).
	for _, i := range e.Sel.Tau().Indexes() {
		row := make([]float64, nv)
		for v, tau := range taus {
			if tau.Contains(i) {
				row[v] = 1
			}
		}
		if err := p.AddConstraint(row, lp.EQ, float64(e.Freq[i])); err != nil {
			return nil, err
		}
	}
	// Upper bound: Σ_τ X_τ ≤ L(σ).
	row := make([]float64, nv)
	for v := range taus {
		row[v] = 1
	}
	if err := p.AddConstraint(row, lp.LE, float64(e.Limit)); err != nil {
		return nil, err
	}
	return p, nil
}

// solve formulates and solves one independent program per relevant
// selection on a pool of min(workers, selections) goroutines; workers must
// be at least 1. Because floating-point addition is not associative, the fold
// below walks blocks in sorted key order, so Objective — and everything
// downstream of the plan — is byte-identical for every width regardless of
// completion order.
func solve(stats *Stats, costs query.Coster, opts SolveOptions, workers int) (*Plan, error) {
	keys := stats.SortedKeys()
	blocks := make([]solvedBlock, len(keys))
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < min(workers, len(keys)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				blocks[i] = solveBlock(stats.Entries[keys[i]], costs, opts)
			}
		}()
	}
	for i := range keys {
		idx <- i
	}
	close(idx)
	wg.Wait()

	plan := &Plan{Assign: make(map[string]map[query.Tau]int64, len(stats.Entries))}
	for i, key := range keys {
		b := &blocks[i]
		if b.err != nil {
			return nil, b.err
		}
		if b.sol == nil {
			continue // selection with no variables
		}
		plan.Vars += len(b.taus)
		plan.Constraints += b.cons
		plan.Objective += b.sol.Objective
		plan.Assign[key] = roundAssign(b.taus, b.sol.X, opts)
	}
	return plan, nil
}

// solvedBlock is one selection's solved program, held until the fold.
type solvedBlock struct {
	taus []query.Tau
	sol  *lp.Solution
	cons int
	err  error
}

// solveBlock formulates and solves one selection's program.
func solveBlock(e *SelEntry, costs query.Coster, opts SolveOptions) (b solvedBlock) {
	b.taus = varsFor(e.Sel)
	if len(b.taus) == 0 {
		return b
	}
	prob, err := buildBlock(e, b.taus, costs)
	if err != nil {
		b.err = err
		return b
	}
	b.cons = len(prob.Cons)
	if b.sol, b.err = solveOne(prob, opts); b.err != nil {
		b.err = fmt.Errorf("cps: selection %s: %w", e.Sel, b.err)
	}
	return b
}

func solveOne(prob *lp.Problem, opts SolveOptions) (*lp.Solution, error) {
	var sol *lp.Solution
	var err error
	if opts.Integer {
		sol, err = lp.SolveInteger(prob, 0)
	} else {
		sol, err = lp.Solve(prob)
	}
	if err != nil {
		return nil, err
	}
	if sol.Status != lp.Optimal {
		return nil, fmt.Errorf("cps: constraint program %v", sol.Status)
	}
	return sol, nil
}

// roundAssign converts the solver's values for one block into integral
// assignments: ⌊x + ε⌋ for the LP relaxation (Section 5.2.5.2), exact
// rounding for the IP.
func roundAssign(taus []query.Tau, x []float64, opts SolveOptions) map[query.Tau]int64 {
	out := make(map[query.Tau]int64, len(taus))
	for v, tau := range taus {
		var n int64
		if opts.Integer {
			n = int64(math.Round(x[v]))
		} else {
			n = int64(math.Floor(x[v] + roundEpsilon))
		}
		if n > 0 {
			out[tau] = n
		}
	}
	return out
}
