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
	// Joint formulates one LP over all selections instead of the exact
	// per-σ decomposition. Same optimum, larger tableau; kept for the
	// ablation benchmark.
	Joint bool
	// Integer solves the exact integer program of Figure 3 (branch and
	// bound) instead of the LP relaxation — the paper's CPS rather than
	// MR-CPS.
	Integer bool
	// Parallelism caps how many per-σ blocks the decomposed formulation
	// solves concurrently. The blocks are independent programs, so they
	// parallelize embarrassingly; results are still folded in sorted key
	// order, keeping Objective sums (floating point) and assignments
	// byte-identical to a serial solve. 0 means GOMAXPROCS; 1 restores
	// serial solving. Ignored by the joint formulation (one program).
	Parallelism int
	// WarmStart, when non-nil, carries solved blocks between decomposed
	// solves (Campaign installs one automatically across waves): unchanged
	// blocks reuse their previous solution verbatim, changed blocks with
	// the same variable set seed lp.SolveFrom with the previous basis.
	// Ignored in Integer mode and by the joint formulation.
	WarmStart *WarmStart
}

// roundEpsilon is added before flooring LP values to absorb solver
// quantisation error; the paper uses 1e-4.
const roundEpsilon = 1e-4

func (o SolveOptions) parallelism() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

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
// statistics and solves it.
func SolvePlan(stats *Stats, costs query.Coster, opts SolveOptions) (*Plan, error) {
	if opts.Joint {
		return solveJoint(stats, costs, opts)
	}
	return solveDecomposed(stats, costs, opts)
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

// buildBlock appends one selection's variables and constraints to the
// problem. base is the problem column of the block's first variable.
func buildBlock(p *lp.Problem, base int, e *SelEntry, taus []query.Tau, costs query.Coster) error {
	nv := len(taus)
	for v, tau := range taus {
		p.Obj[base+v] = costs.Cost(tau)
		p.Names[base+v] = fmt.Sprintf("X%s(%s)", tau, e.Sel)
	}
	// Equivalence constraints: ∀ i ∈ I(σ): Σ_{τ∋i} X_τ = F(A_i, σ).
	for _, i := range e.Sel.Tau().Indexes() {
		row := make([]float64, base+nv)
		for v, tau := range taus {
			if tau.Contains(i) {
				row[base+v] = 1
			}
		}
		if err := p.AddConstraint(row, lp.EQ, float64(e.Freq[i])); err != nil {
			return err
		}
	}
	// Upper bound: Σ_τ X_τ ≤ L(σ).
	row := make([]float64, base+nv)
	for v := range taus {
		row[base+v] = 1
	}
	return p.AddConstraint(row, lp.LE, float64(e.Limit))
}

// solveDecomposed formulates and solves one independent program per relevant
// selection. The blocks share nothing, so they are solved by a bounded pool
// of goroutines (SolveOptions.Parallelism); because floating-point addition
// is not associative, the fold below walks blocks in sorted key order, so
// Objective — and everything downstream of the plan — is byte-identical to a
// serial solve regardless of completion order.
func solveDecomposed(stats *Stats, costs query.Coster, opts SolveOptions) (*Plan, error) {
	keys := stats.SortedKeys()
	blocks := make([]solvedBlock, len(keys))
	workers := opts.parallelism()
	if workers > len(keys) {
		workers = len(keys)
	}
	if workers > 1 {
		idx := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range idx {
					blocks[i] = solveBlock(keys[i], stats.Entries[keys[i]], costs, opts)
				}
			}()
		}
		for i := range keys {
			idx <- i
		}
		close(idx)
		wg.Wait()
	} else {
		for i := range keys {
			blocks[i] = solveBlock(keys[i], stats.Entries[keys[i]], costs, opts)
		}
	}

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
		plan.Assign[key] = roundAssign(b.taus, b.sol.X, 0, opts)
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

// solveBlock formulates and solves one selection's program, consulting the
// warm-start store (when one is installed) before and after.
func solveBlock(key string, e *SelEntry, costs query.Coster, opts SolveOptions) (b solvedBlock) {
	b.taus = varsFor(e.Sel)
	if len(b.taus) == 0 {
		return b
	}
	warm := opts.WarmStart
	if opts.Integer {
		warm = nil // basis seeding has no meaning under branch and bound
	}
	var fp string
	var prev warmBlock
	var hasPrev bool
	if warm != nil {
		fp = blockFingerprint(e, b.taus, costs)
		if prev, hasPrev = warm.lookup(key); hasPrev && prev.fp == fp {
			// Identical program: the previous solution, verbatim — the
			// bit-identical dominant case across campaign waves.
			b.sol, b.cons = prev.sol, prev.cons
			warm.count(&warm.hits.Reused)
			return b
		}
	}
	prob := lp.NewProblem(len(b.taus))
	prob.Names = make([]string, len(b.taus))
	if err := buildBlock(prob, 0, e, b.taus, costs); err != nil {
		b.err = err
		return b
	}
	b.cons = len(prob.Cons)
	if warm != nil && hasPrev && prev.vars == len(b.taus) && len(prev.basis) > 0 {
		// Same variable set, different numbers: seed phase 2 from the
		// previous basis. lp.SolveFrom degrades to a cold solve itself when
		// the basis no longer applies.
		b.sol, b.err = checkOptimal(lp.SolveFrom(prob, prev.basis))
		warm.count(&warm.hits.Seeded)
	} else {
		b.sol, b.err = solveOne(prob, opts)
		if warm != nil {
			warm.count(&warm.hits.Cold)
		}
	}
	if b.err != nil {
		b.err = fmt.Errorf("cps: selection %s: %w", e.Sel, b.err)
		return b
	}
	if warm != nil {
		warm.store(key, warmBlock{fp: fp, vars: len(b.taus), cons: b.cons, basis: b.sol.Basis, sol: b.sol})
	}
	return b
}

func solveJoint(stats *Stats, costs query.Coster, opts SolveOptions) (*Plan, error) {
	keys := stats.SortedKeys()
	// First pass: count variables.
	total := 0
	tausByKey := make(map[string][]query.Tau, len(keys))
	for _, key := range keys {
		taus := varsFor(stats.Entries[key].Sel)
		tausByKey[key] = taus
		total += len(taus)
	}
	prob := lp.NewProblem(total)
	prob.Names = make([]string, total)
	base := 0
	for _, key := range keys {
		e := stats.Entries[key]
		taus := tausByKey[key]
		if len(taus) == 0 {
			continue
		}
		if err := buildBlock(prob, base, e, taus, costs); err != nil {
			return nil, err
		}
		base += len(taus)
	}
	sol, err := solveOne(prob, opts)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Assign:      make(map[string]map[query.Tau]int64, len(keys)),
		Objective:   sol.Objective,
		Vars:        total,
		Constraints: len(prob.Cons),
	}
	base = 0
	for _, key := range keys {
		taus := tausByKey[key]
		if len(taus) == 0 {
			continue
		}
		plan.Assign[key] = roundAssign(taus, sol.X, base, opts)
		base += len(taus)
	}
	return plan, nil
}

func solveOne(prob *lp.Problem, opts SolveOptions) (*lp.Solution, error) {
	if opts.Integer {
		return checkOptimal(lp.SolveInteger(prob, 0))
	}
	return checkOptimal(lp.Solve(prob))
}

func checkOptimal(sol *lp.Solution, err error) (*lp.Solution, error) {
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
func roundAssign(taus []query.Tau, x []float64, base int, opts SolveOptions) map[query.Tau]int64 {
	out := make(map[query.Tau]int64, len(taus))
	for v, tau := range taus {
		val := x[base+v]
		var n int64
		if opts.Integer {
			n = int64(math.Round(val))
		} else {
			n = int64(math.Floor(val + roundEpsilon))
		}
		if n > 0 {
			out[tau] = n
		}
	}
	return out
}
