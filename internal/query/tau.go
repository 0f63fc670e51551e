// Package query defines the query model of the paper: SSD queries (stratified
// sample designs made of disjoint stratum constraints), MSSD queries (sets of
// SSDs plus a shared-survey cost function), answers, and cost evaluation.
package query

import (
	"fmt"
	"math/bits"
	"strings"
)

// MaxQueries bounds the number of SSDs in an MSSD so that τ index sets fit a
// 64-bit mask.
const MaxQueries = 64

// Tau is a set of SSD indexes (0-based), represented as a bitmask — the τ of
// the paper: the set of surveys an individual is assigned to, or the index
// set of a shared-cost entry.
type Tau uint64

// NewTau builds a Tau from 0-based query indexes.
func NewTau(indexes ...int) Tau {
	var t Tau
	for _, i := range indexes {
		t = t.With(i)
	}
	return t
}

// With returns the set with index i added. It panics for indexes outside
// [0, MaxQueries).
func (t Tau) With(i int) Tau {
	if i < 0 || i >= MaxQueries {
		panic(fmt.Sprintf("query: tau index %d out of range", i))
	}
	return t | 1<<uint(i)
}

// Contains reports whether index i is in the set.
func (t Tau) Contains(i int) bool { return t&(1<<uint(i)) != 0 }

// Size returns |τ|.
func (t Tau) Size() int { return bits.OnesCount64(uint64(t)) }

// Empty reports whether the set is empty.
func (t Tau) Empty() bool { return t == 0 }

// Indexes returns the 0-based indexes in ascending order.
func (t Tau) Indexes() []int {
	out := make([]int, 0, t.Size())
	for v := uint64(t); v != 0; {
		i := bits.TrailingZeros64(v)
		out = append(out, i)
		v &^= 1 << uint(i)
	}
	return out
}

// SubsetOf reports whether t ⊆ o.
func (t Tau) SubsetOf(o Tau) bool { return t&^o == 0 }

// Union returns t ∪ o.
func (t Tau) Union(o Tau) Tau { return t | o }

// String renders the set as "{1,3}" using 1-based indexes, matching the
// paper's notation.
func (t Tau) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for n, i := range t.Indexes() {
		if n > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%d", i+1)
	}
	b.WriteByte('}')
	return b.String()
}

// Subsets calls fn for every non-empty subset of t, in ascending mask order.
// If fn returns false, enumeration stops.
func (t Tau) Subsets(fn func(Tau) bool) {
	// Standard submask enumeration.
	for s := Tau(0); ; {
		s = (s - t) & t // next submask after s
		if s == 0 {
			return
		}
		if !fn(s) {
			return
		}
		if s == t {
			return
		}
	}
}

// Pairs calls fn for every 2-element subset {i, j} of t (i < j).
func (t Tau) Pairs(fn func(i, j int)) {
	idx := t.Indexes()
	for a := 0; a < len(idx); a++ {
		for b := a + 1; b < len(idx); b++ {
			fn(idx[a], idx[b])
		}
	}
}
