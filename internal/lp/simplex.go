package lp

import (
	"fmt"
	"math"
)

// eps is the numeric tolerance of the solver.
const eps = 1e-9

// Solve runs the two-phase Simplex method on the problem and returns its
// status, an optimal vertex (when Optimal), and the objective value. The
// implementation is a dense tableau with Bland's smallest-index rule, which
// guarantees termination (no cycling) at the cost of some speed — acceptable
// for the query-sized LPs of MR-CPS.
func Solve(p *Problem) (*Solution, error) {
	n := p.NumVars()
	m := len(p.Cons)
	if n == 0 {
		return &Solution{Status: Optimal, X: nil, Objective: 0}, nil
	}

	// Count auxiliary columns: slack for LE, surplus for GE, artificial
	// for GE and EQ rows.
	numSlack := 0
	numArt := 0
	for _, c := range p.Cons {
		rel, b := c.Rel, c.B
		if b < 0 {
			rel = flip(rel)
		}
		switch rel {
		case LE:
			numSlack++
		case GE:
			numSlack++ // surplus
			numArt++
		case EQ:
			numArt++
		}
	}

	cols := n + numSlack + numArt + 1 // +1 for RHS
	t := newTableau(m, cols, n, numSlack)

	slackIdx := n
	artIdx := n + numSlack
	for i, c := range p.Cons {
		coeffs := c.Coeffs
		b := c.B
		rel := c.Rel
		sign := 1.0
		if b < 0 {
			sign = -1.0
			b = -b
			rel = flip(rel)
		}
		for j := 0; j < n; j++ {
			t.a[i][j] = sign * coeffs[j]
		}
		t.a[i][cols-1] = b
		switch rel {
		case LE:
			t.a[i][slackIdx] = 1
			t.basis[i] = slackIdx
			slackIdx++
		case GE:
			t.a[i][slackIdx] = -1
			slackIdx++
			t.a[i][artIdx] = 1
			t.basis[i] = artIdx
			t.artificial[artIdx] = true
			artIdx++
		case EQ:
			t.a[i][artIdx] = 1
			t.basis[i] = artIdx
			t.artificial[artIdx] = true
			artIdx++
		}
	}

	// Phase 1: minimise the sum of artificial variables.
	if numArt > 0 {
		phase1 := make([]float64, cols-1)
		for j := range phase1 {
			if t.artificial[j] {
				phase1[j] = 1
			}
		}
		t.setObjective(phase1)
		if status := t.iterate(); status == Unbounded {
			return nil, fmt.Errorf("lp: phase-1 unbounded (internal error)")
		}
		if t.objectiveValue() > 1e-7 {
			return &Solution{Status: Infeasible}, nil
		}
		if err := t.driveOutArtificials(); err != nil {
			return nil, err
		}
	}

	// Phase 2: minimise the real objective (artificial columns frozen).
	phase2 := make([]float64, cols-1)
	copy(phase2, p.Obj)
	t.setObjective(phase2)
	t.banArtificials()
	if status := t.iterate(); status == Unbounded {
		return &Solution{Status: Unbounded}, nil
	}

	x := make([]float64, n)
	for i, bv := range t.basis {
		if bv < n {
			x[bv] = t.a[i][cols-1]
		}
	}
	var obj float64
	for j := 0; j < n; j++ {
		obj += p.Obj[j] * x[j]
	}
	return &Solution{Status: Optimal, X: x, Objective: obj}, nil
}

func flip(r Rel) Rel {
	switch r {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// tableau is a dense Simplex tableau: m constraint rows, one objective row,
// and a basis bookkeeping array.
type tableau struct {
	a          [][]float64 // m rows × cols (last col = RHS)
	obj        []float64   // reduced-cost row, length cols (last = -objective value)
	basis      []int       // basis[i] = column basic in row i
	artificial map[int]bool
	banned     map[int]bool
	numVars    int
	numSlack   int
	cols       int
}

func newTableau(m, cols, numVars, numSlack int) *tableau {
	t := &tableau{
		a:          make([][]float64, m),
		obj:        make([]float64, cols),
		basis:      make([]int, m),
		artificial: make(map[int]bool),
		banned:     make(map[int]bool),
		numVars:    numVars,
		numSlack:   numSlack,
		cols:       cols,
	}
	for i := range t.a {
		t.a[i] = make([]float64, cols)
	}
	return t
}

// setObjective installs a cost vector and prices out the current basis so
// reduced costs of basic variables are zero.
func (t *tableau) setObjective(cost []float64) {
	for j := 0; j < t.cols-1; j++ {
		t.obj[j] = cost[j]
	}
	t.obj[t.cols-1] = 0
	for i, bv := range t.basis {
		if c := t.obj[bv]; c != 0 {
			for j := 0; j < t.cols; j++ {
				t.obj[j] -= c * t.a[i][j]
			}
		}
	}
}

// objectiveValue returns the current objective (we store its negation in the
// RHS slot of the objective row).
func (t *tableau) objectiveValue() float64 { return -t.obj[t.cols-1] }

// banArtificials prevents artificial columns from re-entering the basis in
// phase 2.
func (t *tableau) banArtificials() {
	for j := range t.artificial {
		t.banned[j] = true
	}
}

// iterate runs Simplex pivots with Bland's rule until optimal or unbounded.
func (t *tableau) iterate() Status {
	for {
		// Entering column: smallest index with negative reduced cost.
		enter := -1
		for j := 0; j < t.cols-1; j++ {
			if t.banned[j] {
				continue
			}
			if t.obj[j] < -eps {
				enter = j
				break
			}
		}
		if enter < 0 {
			return Optimal
		}
		// Leaving row: min ratio, ties by smallest basis index (Bland).
		leave := -1
		best := math.Inf(1)
		for i := range t.a {
			if t.a[i][enter] > eps {
				ratio := t.a[i][t.cols-1] / t.a[i][enter]
				if ratio < best-eps || (ratio < best+eps && (leave < 0 || t.basis[i] < t.basis[leave])) {
					best = ratio
					leave = i
				}
			}
		}
		if leave < 0 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column `enter` basic in row `leave`.
func (t *tableau) pivot(leave, enter int) {
	row := t.a[leave]
	pv := row[enter]
	for j := 0; j < t.cols; j++ {
		row[j] /= pv
	}
	for i := range t.a {
		if i == leave {
			continue
		}
		if f := t.a[i][enter]; f != 0 {
			for j := 0; j < t.cols; j++ {
				t.a[i][j] -= f * row[j]
			}
		}
	}
	if f := t.obj[enter]; f != 0 {
		for j := 0; j < t.cols; j++ {
			t.obj[j] -= f * row[j]
		}
	}
	t.basis[leave] = enter
}

// driveOutArtificials pivots remaining basic artificial variables out of the
// basis after a successful phase 1 (they must have value ~0). Rows that
// cannot pivot (all-zero) are redundant and left as-is.
func (t *tableau) driveOutArtificials() error {
	for i, bv := range t.basis {
		if !t.artificial[bv] {
			continue
		}
		if math.Abs(t.a[i][t.cols-1]) > 1e-7 {
			return fmt.Errorf("lp: artificial basic with nonzero value after phase 1")
		}
		pivoted := false
		for j := 0; j < t.numVars+t.numSlack; j++ {
			if math.Abs(t.a[i][j]) > eps {
				t.pivot(i, j)
				pivoted = true
				break
			}
		}
		_ = pivoted // a redundant row may remain basic in the artificial at value 0
	}
	return nil
}
