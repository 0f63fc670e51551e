package predicate

import (
	"fmt"
	"strings"
)

// Op is a comparison operator between an attribute and an integer constant.
type Op int

// Comparison operators.
const (
	Lt Op = iota // <
	Le           // <=
	Gt           // >
	Ge           // >=
	Eq           // =
	Ne           // !=
)

// String renders the operator in the textual syntax.
func (o Op) String() string {
	switch o {
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	case Eq:
		return "="
	case Ne:
		return "!="
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Holds evaluates "x o v".
func (o Op) Holds(x, v int64) bool {
	switch o {
	case Lt:
		return x < v
	case Le:
		return x <= v
	case Gt:
		return x > v
	case Ge:
		return x >= v
	case Eq:
		return x == v
	case Ne:
		return x != v
	default:
		panic(fmt.Sprintf("predicate: bad op %d", int(o)))
	}
}

// Expr is a propositional formula over tuple attributes.
type Expr interface {
	// String renders the formula in the textual syntax accepted by Parse.
	String() string
	precedence() int
}

// Compare is an atomic comparison "attr op value".
type Compare struct {
	Attr  string
	Op    Op
	Value int64
}

// And is the conjunction of two formulas.
type And struct{ L, R Expr }

// Or is the disjunction of two formulas.
type Or struct{ L, R Expr }

// Not is the negation of a formula.
type Not struct{ X Expr }

// Literal is the constant true or false formula. It appears when projecting
// stratum selections for queries without a matching stratum and as a parser
// convenience.
type Literal bool

// True and False are the constant formulas.
const (
	True  Literal = true
	False Literal = false
)

func (c Compare) String() string  { return fmt.Sprintf("%s %s %d", c.Attr, c.Op, c.Value) }
func (c Compare) precedence() int { return 4 }

func (a And) String() string {
	return fmt.Sprintf("%s and %s", paren(a.L, 2), paren(a.R, 2))
}
func (a And) precedence() int { return 2 }

func (o Or) String() string {
	return fmt.Sprintf("%s or %s", paren(o.L, 1), paren(o.R, 1))
}
func (o Or) precedence() int { return 1 }

func (n Not) String() string  { return "not " + paren(n.X, 3) }
func (n Not) precedence() int { return 3 }

func (l Literal) String() string {
	if bool(l) {
		return "true"
	}
	return "false"
}
func (l Literal) precedence() int { return 4 }

func paren(e Expr, ctx int) string {
	if e.precedence() < ctx {
		return "(" + e.String() + ")"
	}
	return e.String()
}

// AndAll folds a conjunction over the given formulas. It returns True for an
// empty list and skips constant-true operands.
func AndAll(exprs ...Expr) Expr {
	var acc Expr
	for _, e := range exprs {
		if e == nil || e == True {
			continue
		}
		if e == False {
			return False
		}
		if acc == nil {
			acc = e
		} else {
			acc = And{acc, e}
		}
	}
	if acc == nil {
		return True
	}
	return acc
}

// OrAll folds a disjunction over the given formulas. It returns False for an
// empty list and skips constant-false operands.
func OrAll(exprs ...Expr) Expr {
	var acc Expr
	for _, e := range exprs {
		if e == nil || e == False {
			continue
		}
		if e == True {
			return True
		}
		if acc == nil {
			acc = e
		} else {
			acc = Or{acc, e}
		}
	}
	if acc == nil {
		return False
	}
	return acc
}

// Equal reports structural equality of two formulas.
func Equal(a, b Expr) bool {
	return strings.Compare(a.String(), b.String()) == 0
}
