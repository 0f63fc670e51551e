package dataset

import (
	"fmt"
	"math/rand"
	"runtime"
)

// A Split is the portion of the population stored on one machine of the
// distributed system. The paper's R = R1 ∪ ... ∪ RK.
type Split []Tuple

// Partitioning describes how a relation is distributed over machines. The
// paper stresses that data is typically NOT distributed randomly (machines in
// a geographic region store that region's data), which is exactly the case
// where naive per-split sampling is biased — so we support both layouts.
type Partitioning int

const (
	// RoundRobin deals tuples to splits in turn; splits are near-equal in
	// size and each is close to a random sample of R.
	RoundRobin Partitioning = iota
	// Contiguous assigns consecutive runs of tuples to each split,
	// modelling locality-correlated storage (the adversarial case for
	// naive distributed sampling).
	Contiguous
	// Skewed gives split i a share proportional to i+1, modelling a
	// cluster with heterogeneous shard sizes.
	Skewed
	// ShuffledContiguous randomly permutes the tuples first and then cuts
	// contiguous runs; sizes equal Contiguous but content is random.
	ShuffledContiguous
)

// ParsePartitioning maps a strategy name (as produced by String) back to the
// strategy; for CLI flags.
func ParsePartitioning(name string) (Partitioning, error) {
	for _, p := range []Partitioning{RoundRobin, Contiguous, Skewed, ShuffledContiguous} {
		if p.String() == name {
			return p, nil
		}
	}
	return 0, fmt.Errorf("dataset: unknown partitioning %q (want round-robin, contiguous, skewed or shuffled-contiguous)", name)
}

// String names the partitioning strategy.
func (p Partitioning) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Contiguous:
		return "contiguous"
	case Skewed:
		return "skewed"
	case ShuffledContiguous:
		return "shuffled-contiguous"
	default:
		return fmt.Sprintf("Partitioning(%d)", int(p))
	}
}

// Partition splits the relation's tuples into k splits using the strategy.
// rng is only consulted by ShuffledContiguous and may be nil otherwise.
// The union of the returned splits is exactly the relation.
//
// A cut is a layout, not a second relation: Contiguous and Skewed splits are
// windows onto the relation's own tuple array, and ShuffledContiguous ones
// onto a single shuffled copy of it; only RoundRobin gathers fresh splits.
// Every window's capacity ends where it does, so an append reallocates and
// never reaches a neighbour or the relation. Writing a row in place does
// reach them: whoever edits a split copies it first (live.Population does,
// at its first edit), or the relation the caller still holds changes too.
func Partition(r *Relation, k int, strategy Partitioning, rng *rand.Rand) ([]Split, error) {
	if k <= 0 {
		return nil, fmt.Errorf("dataset: cannot partition into %d splits", k)
	}
	tuples := r.Tuples()
	switch strategy {
	case RoundRobin:
		splits := make([]Split, k)
		for i, t := range tuples {
			splits[i%k] = append(splits[i%k], t)
		}
		return splits, nil
	case Contiguous:
		return cutContiguous(tuples, k), nil
	case ShuffledContiguous:
		if rng == nil {
			return nil, fmt.Errorf("dataset: ShuffledContiguous requires a rand source")
		}
		perm := make([]Tuple, len(tuples))
		copy(perm, tuples)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		return cutContiguous(perm, k), nil
	case Skewed:
		total := 0
		for i := 1; i <= k; i++ {
			total += i
		}
		splits := make([]Split, k)
		start := 0
		for i := 0; i < k; i++ {
			share := len(tuples) * (i + 1) / total
			end := start + share
			if i == k-1 {
				end = len(tuples)
			}
			if end > len(tuples) {
				end = len(tuples)
			}
			splits[i] = tuples[start:end:end]
			start = end
		}
		return splits, nil
	default:
		return nil, fmt.Errorf("dataset: unknown partitioning %v", strategy)
	}
}

func cutContiguous(tuples []Tuple, k int) []Split {
	splits := make([]Split, k)
	n := len(tuples)
	for i := 0; i < k; i++ {
		lo := n * i / k
		hi := n * (i + 1) / k
		splits[i] = tuples[lo:hi:hi]
	}
	return splits
}

// DefaultSplits is the default split count for a pass over a resident
// population: two map tasks per simulated slave (the historical strata
// default) but never fewer than two per core, so a pass has enough map tasks
// to saturate the machine even when -slaves is small. The one-shot CLI and
// the serve daemon both take their default from here — the split structure
// feeds per-task seeds and per-split combiners, so the two paths must agree
// on it for their answers to stay byte-identical.
func DefaultSplits(slaves int) int {
	k := 2 * slaves
	if c := 2 * runtime.GOMAXPROCS(0); c > k {
		k = c
	}
	if k < 1 {
		k = 1
	}
	return k
}
