// Package predicate implements the propositional-formula language of SSD
// stratum constraints (Section 3.2.1 of the paper): comparisons between an
// attribute and a constant, combined with conjunction, disjunction and
// negation, in the style of domain relational calculus selection conditions.
//
// The package provides:
//
//   - an AST (Formula, Cmp, And, Or, Not) with a String rendering;
//   - a parser for a small textual syntax, e.g.
//     "gender = 1 and (income < 50000 or income > 100000)";
//   - compilation of a formula against a dataset.Schema into a fast tuple
//     predicate (Compile);
//   - box decomposition (Boxes): a formula lowered to a union of axis-aligned
//     boxes — disjunctive normal form over per-attribute integer intervals,
//     clipped to the schema's declared domains;
//   - a decision procedure for pairwise disjointness of formulas (Disjoint),
//     built on box decomposition — SSD validation requires it of every pair
//     of stratum constraints;
//   - a flat first-match Classifier over a list of formulas, also built on
//     box decomposition — the stratum scan of the sampling map tasks.
//
// Box decomposition is the package's semantic workhorse: two formulas are
// disjoint iff their box unions do not intersect, and the serve daemon
// reuses the same geometry for query canonicalization (equivalent formulas
// normalize to the same boxes) and for split pre-filtering (a split whose
// bounding box misses every query box cannot contribute a tuple). Boxes are
// exact for this language — every formula over integer attributes with
// bounded domains denotes a finite union of boxes — so decisions made on
// boxes are decisions about the formulas themselves.
package predicate
