package serve

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/predicate"
)

// Stratum pre-filtering over the resident population. The population keeps,
// for every split, a bounding box of its tuples (per attribute min/max,
// widened as members arrive — live.Derived.Bounds). Per pass, each split's
// box is tested against the classifier of every batched query
// (predicate.Classifier.Meets): a split whose box meets no cell that some
// stratum holds on provably contains no tuple any stratum condition can
// match, so the pass can skip scanning it.
//
// Pruning is index-preserving: a pruned split is replaced by a nil slice in
// the splits vector rather than removed, so the engine still creates one
// (trivial) map task per original split and every surviving task keeps its
// task index — and with it its deterministic RNG seed. That is what makes a
// pruned pass byte-identical to an unpruned one: the skipped tasks would
// have emitted nothing (no map output, no combine draws), and the surviving
// tasks see the same seeds and the same tuples. The saving is the scan of
// the pruned tuples, which dominates map time for selective query sets.

// pruneSplits returns a copy of splits with every split no classifier can
// match a tuple of replaced by nil, plus the number of splits pruned. derived
// must be what AcquireSplits handed out with splits.
func pruneSplits(splits []dataset.Split, derived live.Derived, classifiers []*predicate.Classifier) ([]dataset.Split, int) {
	out := make([]dataset.Split, len(splits))
	pruned := 0
	for i, split := range splits {
		meets := func(c *predicate.Classifier) bool { return c.Meets(derived.Bounds[i]) }
		if len(split) > 0 && slices.ContainsFunc(classifiers, meets) {
			out[i] = split
		} else {
			pruned++
		}
	}
	return out, pruned
}
