package serve

import (
	"slices"

	"repro/internal/dataset"
	"repro/internal/predicate"
)

// Stratum pre-filtering over the resident population. The population keeps,
// for every block, a bounding box of its tuples (per attribute min/max,
// widened as members arrive — live.Population.Acquire hands them out). Per
// pass, each block's box is tested against the classifier of every batched
// query (predicate.Classifier.Meets): a block whose box meets no cell that
// some stratum holds on provably contains no tuple any stratum condition can
// match, so the pass can skip scanning it.
//
// Pruning is index-preserving: a pruned block is replaced by the zero block
// (no rows, no columns) rather than removed, so the engine still creates one
// (trivial) map task per original split and every surviving task keeps its
// task index — and with it its deterministic RNG seed. That is what makes a
// pruned pass byte-identical to an unpruned one: the skipped tasks would
// have emitted nothing (no map output, no combine draws), and the surviving
// tasks see the same seeds and the same tuples. The saving is the scan of
// the pruned tuples, which dominates map time for selective query sets.

// pruneBlocks returns a copy of blocks with every block no classifier can
// match a tuple of replaced by the zero block, plus the number of blocks
// pruned. bounds must be what Acquire handed out with blocks.
func pruneBlocks(blocks []dataset.Block, bounds [][]predicate.Interval, classifiers []*predicate.Classifier) ([]dataset.Block, int) {
	out := make([]dataset.Block, len(blocks))
	pruned := 0
	for i, b := range blocks {
		meets := func(c *predicate.Classifier) bool { return c.Meets(bounds[i]) }
		if b.Len() > 0 && slices.ContainsFunc(classifiers, meets) {
			out[i] = b
		} else {
			pruned++
		}
	}
	return out, pruned
}
