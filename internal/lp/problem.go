// Package lp provides a self-contained linear-programming toolkit: a dense
// two-phase Simplex solver with Bland's anti-cycling rule, and a
// branch-and-bound integer solver layered on top of it. It replaces the
// Apache Commons Math Simplex used by the paper's implementation (the repo is
// stdlib-only) and additionally enables the LP-vs-IP optimality analysis of
// Section 6.2.2.
//
// Problems are minimisation problems over non-negative variables with
// ≤, ≥ and = constraints.
package lp

import (
	"fmt"
	"strings"
)

// Rel is a constraint relation.
type Rel int

// Constraint relations.
const (
	LE Rel = iota // Σ a_j x_j ≤ b
	GE            // Σ a_j x_j ≥ b
	EQ            // Σ a_j x_j = b
)

// String renders the relation symbol.
func (r Rel) String() string {
	switch r {
	case LE:
		return "<="
	case GE:
		return ">="
	case EQ:
		return "="
	default:
		return fmt.Sprintf("Rel(%d)", int(r))
	}
}

// Constraint is one linear constraint over the problem's variables. Coeffs
// may be shorter than the number of variables; missing entries are zero.
type Constraint struct {
	Coeffs []float64
	Rel    Rel
	B      float64
}

// Problem is: minimise Obj·x subject to the constraints, x ≥ 0.
type Problem struct {
	// Obj holds the objective coefficients; its length is the number of
	// variables.
	Obj []float64
	// Cons are the constraints.
	Cons []Constraint
	// Names optionally labels variables for debugging.
	Names []string
}

// NewProblem creates a minimisation problem with n variables.
func NewProblem(n int) *Problem {
	return &Problem{Obj: make([]float64, n)}
}

// NumVars returns the number of variables.
func (p *Problem) NumVars() int { return len(p.Obj) }

// AddConstraint appends a constraint. Coefficient vectors shorter than the
// variable count are zero-extended; longer ones are an error.
func (p *Problem) AddConstraint(coeffs []float64, rel Rel, b float64) error {
	if len(coeffs) > len(p.Obj) {
		return fmt.Errorf("lp: constraint has %d coefficients, problem has %d variables", len(coeffs), len(p.Obj))
	}
	c := make([]float64, len(p.Obj))
	copy(c, coeffs)
	p.Cons = append(p.Cons, Constraint{Coeffs: c, Rel: rel, B: b})
	return nil
}

// Clone deep-copies the problem, so branch-and-bound can add bound
// constraints without sharing state.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Obj:   append([]float64(nil), p.Obj...),
		Cons:  make([]Constraint, len(p.Cons)),
		Names: append([]string(nil), p.Names...),
	}
	for i, c := range p.Cons {
		q.Cons[i] = Constraint{
			Coeffs: append([]float64(nil), c.Coeffs...),
			Rel:    c.Rel,
			B:      c.B,
		}
	}
	return q
}

// String renders the problem in a compact algebraic form for debugging.
func (p *Problem) String() string {
	var b strings.Builder
	b.WriteString("min ")
	b.WriteString(linComb(p.Obj, p.Names))
	b.WriteString("\ns.t.\n")
	for _, c := range p.Cons {
		fmt.Fprintf(&b, "  %s %s %g\n", linComb(c.Coeffs, p.Names), c.Rel, c.B)
	}
	b.WriteString("  x >= 0\n")
	return b.String()
}

func linComb(coeffs []float64, names []string) string {
	var b strings.Builder
	first := true
	for j, c := range coeffs {
		if c == 0 {
			continue
		}
		name := fmt.Sprintf("x%d", j)
		if j < len(names) && names[j] != "" {
			name = names[j]
		}
		if !first {
			b.WriteString(" + ")
		}
		first = false
		if c == 1 {
			b.WriteString(name)
		} else {
			fmt.Fprintf(&b, "%g*%s", c, name)
		}
	}
	if first {
		b.WriteString("0")
	}
	return b.String()
}

// Status describes a solve outcome.
type Status int

// Solve outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of solving a problem.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
}
