// Package sst implements the stratum-selection trie of Section 5.2.5.1
// (Figure 5): a fixed-depth trie whose level i branches on the stratum
// constraint (if any) that query Q_i contributes to a stratum selection σ,
// with instance counts at the leaves. MR-CPS uses SSTs to derive the set of
// relevant stratum selections [[Q]]* and the frequencies F(A_i, σ) without
// enumerating the exponentially large [[Q]].
package sst

import (
	"fmt"
	"sort"
	"strings"
)

// None is the branch label for "query contributes no stratum" at some level.
const None = -1

// Trie is a stratum-selection trie of fixed depth. A path is a stratum
// selection: path[i] is the stratum index of query i, or None. The zero
// value is not usable; call New.
type Trie struct {
	depth int
	root  *node
	leafs int
}

type node struct {
	children map[int]*node
	count    int64 // leaf instance count (only at depth == t.depth)
}

// New creates a trie for selections over `depth` queries.
func New(depth int) *Trie {
	if depth < 0 {
		panic("sst: negative depth")
	}
	return &Trie{depth: depth, root: &node{}}
}

// Len returns the number of distinct selections inserted.
func (t *Trie) Len() int { return t.leafs }

// Insert adds `delta` instances of the selection. It panics when the path
// length does not match the trie depth or delta is negative.
func (t *Trie) Insert(path []int, delta int64) {
	if len(path) != t.depth {
		panic(fmt.Sprintf("sst: path length %d, trie depth %d", len(path), t.depth))
	}
	if delta < 0 {
		panic("sst: negative delta")
	}
	n := t.root
	for _, b := range path {
		if n.children == nil {
			n.children = make(map[int]*node)
		}
		child, ok := n.children[b]
		if !ok {
			child = &node{}
			n.children[b] = child
		}
		n = child
	}
	if n.count == 0 && delta > 0 {
		t.leafs++
	}
	n.count += delta
}

// String renders the trie's leaves like Figure 5 of the paper: one line per
// stored selection with its instance count, in deterministic order.
func (t *Trie) String() string {
	type leaf struct {
		path  []int
		count int64
	}
	var leaves []leaf
	t.Walk(func(path []int, count int64) {
		leaves = append(leaves, leaf{append([]int(nil), path...), count})
	})
	sort.Slice(leaves, func(a, b int) bool {
		for i := range leaves[a].path {
			if leaves[a].path[i] != leaves[b].path[i] {
				return leaves[a].path[i] < leaves[b].path[i]
			}
		}
		return false
	})
	var b strings.Builder
	for _, l := range leaves {
		for i, v := range l.path {
			if i > 0 {
				b.WriteByte(' ')
			}
			if v == None {
				b.WriteByte('-')
			} else {
				fmt.Fprintf(&b, "s%d", v+1)
			}
		}
		fmt.Fprintf(&b, ": %d\n", l.count)
	}
	return b.String()
}

// Walk visits every selection with a positive count. The path slice passed
// to fn is reused between calls; copy it to retain it.
func (t *Trie) Walk(fn func(path []int, count int64)) {
	path := make([]int, t.depth)
	var rec func(n *node, level int)
	rec = func(n *node, level int) {
		if level == t.depth {
			if n.count > 0 {
				fn(path, n.count)
			}
			return
		}
		for b, child := range n.children {
			path[level] = b
			rec(child, level+1)
		}
	}
	rec(t.root, 0)
}
