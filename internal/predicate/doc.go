// Package predicate implements the propositional-formula language of SSD
// stratum constraints (Section 3.2.1 of the paper): comparisons between an
// attribute and a constant, combined with conjunction, disjunction and
// negation, in the style of domain relational calculus selection conditions.
//
// The package provides:
//
//   - an AST (Compare, And, Or, Not, Literal) with a String rendering;
//   - a parser for a small textual syntax, e.g.
//     "gender = 1 and (income < 50000 or income > 100000)";
//   - compilation of a formula against a dataset.Schema into a fast tuple
//     predicate (Compile), and a direct evaluator (Eval);
//   - the one lowering of a list of stratum formulas, Classifier: the cell
//     grid their bounds cut the schema's domains into, with the first
//     formula that holds on each cell.
//
// Every atom changes truth only at its own bounds, so every formula is
// constant on every cell, and a decision about the cells is a decision about
// the formulas on all in-domain tuples. One grid therefore does four jobs:
// the stratum scan of the sampling map tasks (Classify, ClassifyColumns),
// SSD validation (Overlap: two strata holding on one cell), the serve
// daemon's canonical cache key (Key: the grid coarsened to the cuts that
// separate two classes, which is unique, so equal keys mean equal
// classifications), and its split pre-filtering (Meets: a split whose
// bounding box meets no classed cell cannot contribute a tuple).
package predicate
