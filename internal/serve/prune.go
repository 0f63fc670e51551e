package serve

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/predicate"
)

// Stratum pre-filtering over the resident population. At load time the
// server computes, for every split, the bounding box of its tuples (per
// attribute min/max). Per pass, each split's box is tested against the
// classifier of every batched query (predicate.Classifier.Meets): a split
// whose box meets no cell that some stratum holds on provably contains no
// tuple any stratum condition can match, so the pass can skip scanning it.
//
// Pruning is index-preserving: a pruned split is replaced by a nil slice in
// the splits vector rather than removed, so the engine still creates one
// (trivial) map task per original split and every surviving task keeps its
// task index — and with it its deterministic RNG seed. That is what makes a
// pruned pass byte-identical to an unpruned one: the skipped tasks would
// have emitted nothing (no map output, no combine draws), and the surviving
// tasks see the same seeds and the same tuples. The saving is the scan of
// the pruned tuples, which dominates map time for selective query sets.

// splitBounds is the bounding box of one split: one inclusive interval per
// schema field, indexed by field position. A nil entry means the split is
// empty (prunable against any query).
type splitBounds []predicate.Interval

// boundsOf computes per-split bounding boxes for the resident splits.
func boundsOf(splits []dataset.Split, schema *dataset.Schema) []splitBounds {
	out := make([]splitBounds, len(splits))
	for si, split := range splits {
		if len(split) == 0 {
			continue
		}
		b := make(splitBounds, schema.NumFields())
		for j := range b {
			b[j] = predicate.Interval{Lo: split[0].Attrs[j], Hi: split[0].Attrs[j]}
		}
		for _, t := range split[1:] {
			for j, v := range t.Attrs {
				if v < b[j].Lo {
					b[j].Lo = v
				}
				if v > b[j].Hi {
					b[j].Hi = v
				}
			}
		}
		out[si] = b
	}
	return out
}

// pruneSplits returns a copy of splits with every split no classifier can
// match a tuple of replaced by nil, plus the number of splits pruned. The
// caller must pass bounds aligned with splits (from boundsOf).
func pruneSplits(splits []dataset.Split, bounds []splitBounds, classifiers []*predicate.Classifier) ([]dataset.Split, int) {
	out := make([]dataset.Split, len(splits))
	pruned := 0
	for i, split := range splits {
		meets := func(c *predicate.Classifier) bool { return c.Meets(bounds[i]) }
		if len(split) > 0 && slices.ContainsFunc(classifiers, meets) {
			out[i] = split
		} else {
			pruned++
		}
	}
	return out, pruned
}
