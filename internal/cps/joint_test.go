package cps

import (
	"testing"

	"repro/internal/lp"
	"repro/internal/query"
	"repro/internal/stratified"
)

// solveJoint is the reference the per-σ decomposition is checked against:
// the whole of Figure 3 as one program, every selection's block side by side
// in a single tableau. Its optimum must equal the decomposed one.
func solveJoint(stats *Stats, costs query.Coster, opts SolveOptions) (*Plan, error) {
	type block struct {
		key  string
		taus []query.Tau
		prob *lp.Problem
	}
	var blocks []block
	total := 0
	for _, key := range stats.SortedKeys() {
		e := stats.Entries[key]
		taus := varsFor(e.Sel)
		if len(taus) == 0 {
			continue
		}
		prob, err := buildBlock(e, taus, costs)
		if err != nil {
			return nil, err
		}
		blocks = append(blocks, block{key, taus, prob})
		total += len(taus)
	}
	joint := lp.NewProblem(total)
	joint.Names = make([]string, total)
	base := 0
	for _, b := range blocks {
		copy(joint.Obj[base:], b.prob.Obj)
		copy(joint.Names[base:], b.prob.Names)
		for _, c := range b.prob.Cons {
			row := make([]float64, base+len(c.Coeffs))
			copy(row[base:], c.Coeffs)
			if err := joint.AddConstraint(row, c.Rel, c.B); err != nil {
				return nil, err
			}
		}
		base += len(b.taus)
	}
	sol, err := solveOne(joint, opts)
	if err != nil {
		return nil, err
	}
	plan := &Plan{
		Assign:      make(map[string]map[query.Tau]int64, len(blocks)),
		Objective:   sol.Objective,
		Vars:        total,
		Constraints: len(joint.Cons),
	}
	base = 0
	for _, b := range blocks {
		plan.Assign[b.key] = roundAssign(b.taus, sol.X[base:base+len(b.taus)], opts)
		base += len(b.taus)
	}
	return plan, nil
}

func TestJointAndDecomposedLPAgree(t *testing.T) {
	r := testPop(500)
	m := example6MSSD(8, 9, 10, 7)
	compiled, _ := CompileQueries(m.Queries, r.Schema())
	initial, _, err := stratified.RunMQE(zcluster(2), m.Queries, r.Schema(), splitsOf(t, r, 2), stratified.Options{Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	statsQ := CollectFrequencies(m.Queries, initial, compiled)
	if _, err := CountLimitsInMemory(r, compiled, statsQ.Entries); err != nil {
		t.Fatal(err)
	}
	dec, err := SolvePlan(statsQ, m.Costs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := solveJoint(statsQ, m.Costs, SolveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if diff := dec.Objective - joint.Objective; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("decomposed %g vs joint %g", dec.Objective, joint.Objective)
	}
	if dec.Vars != joint.Vars || dec.Constraints != joint.Constraints {
		t.Fatalf("program %d×%d vs joint %d×%d", dec.Vars, dec.Constraints, joint.Vars, joint.Constraints)
	}
}

// TestJointIntegerMatchesDecomposedInteger: branch-and-bound over the joint
// Figure 3 program and over the per-σ blocks reach the same exact optimum.
func TestJointIntegerMatchesDecomposedInteger(t *testing.T) {
	r := testPop(400)
	m := example6MSSD(6, 7, 6, 7)
	compiled, err := CompileQueries(m.Queries, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	initial, _, err := stratified.RunMQE(zcluster(2), m.Queries, r.Schema(), splitsOf(t, r, 2), stratified.Options{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	statsQ := CollectFrequencies(m.Queries, initial, compiled)
	if _, err := CountLimitsInMemory(r, compiled, statsQ.Entries); err != nil {
		t.Fatal(err)
	}
	dec, err := SolvePlan(statsQ, m.Costs, SolveOptions{Integer: true})
	if err != nil {
		t.Fatal(err)
	}
	joint, err := solveJoint(statsQ, m.Costs, SolveOptions{Integer: true})
	if err != nil {
		t.Fatal(err)
	}
	if diff := dec.Objective - joint.Objective; diff > 1e-6 || diff < -1e-6 {
		t.Fatalf("decomposed IP %g vs joint IP %g", dec.Objective, joint.Objective)
	}
	// Both integral plans must satisfy the equivalence constraints exactly.
	for key, e := range statsQ.Entries {
		for i := range m.Queries {
			if dec.Assigned(key, i) != e.Freq[i] || joint.Assigned(key, i) != e.Freq[i] {
				t.Fatalf("selection %s survey %d: dec %d joint %d want %d",
					e.Sel, i, dec.Assigned(key, i), joint.Assigned(key, i), e.Freq[i])
			}
		}
	}
}
