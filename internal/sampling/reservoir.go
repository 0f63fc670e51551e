// Package sampling provides the random-selection primitives of the paper:
// simple random sampling without replacement (the map stage's draw over a
// stratum's match list), reservoir sampling for inputs seen only once — live
// standing samples, the sequential baselines — by Algorithm L (Li 1994:
// distribution-identical to the Algorithm R of Vitter 1985 the paper cites,
// with geometric skip counts), weighted intermediate samples (the combiner
// output of MR-SQE), and the unified-sampler of Algorithm 1, which merges
// intermediate samples of sets of different sizes into an unbiased final one.
package sampling

import (
	"math"
	"math/rand"
)

// Reservoir maintains a uniform simple random sample of size at most k over
// a stream of items. At every point of the stream the reservoir holds a
// simple random sample of the items seen so far — the same guarantee as
// Algorithm R, where the (i+1)-st item replaces a random reservoir slot with
// probability k/(i+1).
//
// Internally it runs Algorithm L: once the reservoir is full it draws, from
// the same k/(i+1) acceptance law, the geometrically distributed count of
// upcoming items that will all be rejected. Those items cost one counter
// decrement each — no RNG call — and the Skip fast path lets batch callers
// consume a whole run of rejected items in O(1).
type Reservoir[T any] struct {
	k     int
	seen  int64
	items []T
	rng   *rand.Rand

	// Algorithm L state, valid only while the reservoir is full: w is the
	// running estimate of the largest "priority" in the reservoir and skip
	// is how many further items will be rejected before one is accepted.
	w    float64
	skip int64
}

// NewReservoir creates a reservoir of capacity k drawing randomness from rng.
// It panics if k is negative or rng is nil.
func NewReservoir[T any](k int, rng *rand.Rand) *Reservoir[T] {
	if k < 0 {
		panic("sampling: negative reservoir capacity")
	}
	if rng == nil {
		panic("sampling: nil rand source")
	}
	return &Reservoir[T]{k: k, items: make([]T, 0, k), rng: rng}
}

// Add offers one stream item to the reservoir.
func (r *Reservoir[T]) Add(item T) {
	r.seen++
	if len(r.items) < r.k {
		r.items = append(r.items, item)
		if len(r.items) == r.k {
			r.w = 1
			r.advance()
		}
		return
	}
	if r.k == 0 {
		return
	}
	if r.skip > 0 {
		r.skip--
		return
	}
	r.items[r.rng.Intn(r.k)] = item
	r.advance()
}

// AddSlice offers every item of the slice in order, equivalent to calling
// Add on each (it consumes the RNG identically, so the two forms produce
// byte-identical reservoirs), but consumes runs of rejected items through
// the Skip fast path in O(1) per run.
func (r *Reservoir[T]) AddSlice(items []T) {
	i := 0
	for i < len(items) && len(r.items) < r.k {
		r.Add(items[i])
		i++
	}
	if i == len(items) {
		return
	}
	if r.k == 0 {
		r.seen += int64(len(items) - i)
		return
	}
	for i < len(items) {
		i += int(r.Skip(int64(len(items) - i)))
		if i == len(items) {
			return
		}
		// items[i] is the next accepted item.
		r.seen++
		r.items[r.rng.Intn(r.k)] = items[i]
		r.advance()
		i++
	}
}

// Skip consumes up to n upcoming stream positions that the reservoir would
// reject anyway and returns how many it consumed (their items need not be
// materialized — this is the sublinear fast path for callers that can seek
// within their data). It never consumes a position whose item would be
// accepted, and returns 0 while the reservoir is still filling, so callers
// must offer the position it stopped at via Add or AddSlice.
func (r *Reservoir[T]) Skip(n int64) int64 {
	if n <= 0 {
		return 0
	}
	if r.k == 0 {
		r.seen += n
		return n
	}
	if len(r.items) < r.k {
		return 0
	}
	m := n
	if r.skip < m {
		m = r.skip
	}
	r.skip -= m
	r.seen += m
	return m
}

// advance draws the next acceptance gap of Algorithm L: shrink w by a
// U^(1/k) factor, then draw the geometric count of rejections until the
// next acceptance.
func (r *Reservoir[T]) advance() {
	r.w *= math.Exp(math.Log(r.uniform()) / float64(r.k))
	s := math.Floor(math.Log(r.uniform()) / math.Log1p(-r.w))
	if s >= math.MaxInt64 || math.IsNaN(s) {
		r.skip = math.MaxInt64
		return
	}
	r.skip = int64(s)
}

// uniform draws from the open interval (0, 1); Algorithm L's logarithms
// need a nonzero variate.
func (r *Reservoir[T]) uniform() float64 {
	for {
		if v := r.rng.Float64(); v > 0 {
			return v
		}
	}
}

// Forget removes the first item satisfying match from the reservoir and
// reports whether one was removed. The slot is back-filled with the last
// item (sample order is irrelevant to a simple random sample), the stream
// count is untouched, and the Algorithm L skip state stays valid for the
// continuation of the stream.
//
// Statistically, removing a specific population member from a simple random
// sample leaves a simple random sample of the remaining population: if the
// member was sampled, the k−1 survivors are an SRS of size k−1 over the
// other members; if it was not, the untouched sample already is one.
// TestForgetKeepsUniformity proves the inclusion probabilities stay uniform.
// Forget is the deletion half of dynamic-set maintenance (see internal/live);
// the insertion half compensates the hole via Readmit. A caller that instead
// offers further stream items with Add after a Forget gets refill-on-arrival
// semantics (the reservoir looks under-full, so the next items are accepted
// outright), which over-represents them — dynamic sets must pair Forget with
// Readmit-based compensation to stay uniform.
func (r *Reservoir[T]) Forget(match func(T) bool) bool {
	for i := range r.items {
		if match(r.items[i]) {
			last := len(r.items) - 1
			r.items[i] = r.items[last]
			var zero T
			r.items[last] = zero
			r.items = r.items[:last]
			return true
		}
	}
	return false
}

// Replace swaps the first item satisfying match for item, in place, and
// reports whether a swap happened. It exists for attribute updates that keep
// the member in the same stratum: the member's identity (and hence the
// sample's distribution) is unchanged, only its payload is refreshed.
func (r *Reservoir[T]) Replace(match func(T) bool, item T) bool {
	for i := range r.items {
		if match(r.items[i]) {
			r.items[i] = item
			return true
		}
	}
	return false
}

// Readmit appends an item into a hole left by Forget without consuming the
// stream position or the Algorithm L skip state — the random-pairing
// compensation step: a caller that pairs each insertion against an earlier
// uncompensated deletion (choosing the in-sample branch with probability
// d1/(d1+d2)) keeps the reservoir a uniform sample of the evolving set.
// It panics when the reservoir is already at capacity, which would mean the
// caller's deletion/insertion bookkeeping is broken.
func (r *Reservoir[T]) Readmit(item T) {
	if len(r.items) >= r.k {
		panic("sampling: Readmit into a full reservoir")
	}
	r.items = append(r.items, item)
}

// Seen returns the number of items offered so far.
func (r *Reservoir[T]) Seen() int64 { return r.seen }

// Cap returns the reservoir capacity k.
func (r *Reservoir[T]) Cap() int { return r.k }

// Sample returns the current sample. The returned slice is owned by the
// reservoir: a later Add may overwrite its elements in place. Callers that
// keep it past further Add calls must copy it (or use TakeSample, which
// detaches the slice).
func (r *Reservoir[T]) Sample() []T { return r.items }

// TakeSample returns the current sample and detaches it from the reservoir:
// the reservoir is reset to an empty state (fresh k-capacity backing array,
// zero Seen, cleared skip state), so later Add calls can never alias or
// overwrite the returned slice.
func (r *Reservoir[T]) TakeSample() []T {
	s := r.items
	r.items = make([]T, 0, r.k)
	r.seen = 0
	r.w = 0
	r.skip = 0
	return s
}
