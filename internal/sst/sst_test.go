package sst

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// Count returns the instance count of the selection (0 when absent).
func (t *Trie) Count(path []int) int64 {
	if len(path) != t.depth {
		panic(fmt.Sprintf("sst: path length %d, trie depth %d", len(path), t.depth))
	}
	n := t.root
	for _, b := range path {
		child, ok := n.children[b]
		if !ok {
			return 0
		}
		n = child
	}
	return n.count
}

func TestInsertAndCount(t *testing.T) {
	tr := New(3)
	tr.Insert([]int{0, None, 2}, 1)
	tr.Insert([]int{0, None, 2}, 2)
	tr.Insert([]int{1, 1, None}, 5)
	if got := tr.Count([]int{0, None, 2}); got != 3 {
		t.Fatalf("Count = %d, want 3", got)
	}
	if got := tr.Count([]int{1, 1, None}); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}
	if got := tr.Count([]int{9, 9, 9}); got != 0 {
		t.Fatalf("absent Count = %d, want 0", got)
	}
	if tr.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tr.Len())
	}
}

func TestWalkVisitsAll(t *testing.T) {
	tr := New(2)
	paths := [][]int{{0, 0}, {0, 1}, {None, 3}}
	for i, p := range paths {
		tr.Insert(p, int64(i+1))
	}
	var got [][]int
	var counts []int64
	tr.Walk(func(path []int, count int64) {
		got = append(got, append([]int(nil), path...))
		counts = append(counts, count)
	})
	if len(got) != 3 {
		t.Fatalf("Walk visited %d leaves, want 3", len(got))
	}
	sort.Slice(got, func(i, j int) bool {
		if got[i][0] != got[j][0] {
			return got[i][0] < got[j][0]
		}
		return got[i][1] < got[j][1]
	})
	want := [][]int{{None, 3}, {0, 0}, {0, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Walk paths = %v, want %v", got, want)
	}
}

func TestZeroDeltaDoesNotCreateLeaf(t *testing.T) {
	tr := New(1)
	tr.Insert([]int{0}, 0)
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after zero insert", tr.Len())
	}
	visits := 0
	tr.Walk(func([]int, int64) { visits++ })
	if visits != 0 {
		t.Fatal("Walk must skip zero-count leaves")
	}
}

func TestPanics(t *testing.T) {
	tr := New(2)
	for _, fn := range []func(){
		func() { tr.Insert([]int{1}, 1) },
		func() { tr.Count([]int{1, 2, 3}) },
		func() { tr.Insert([]int{1, 2}, -1) },
		func() { New(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestDepthZero(t *testing.T) {
	tr := New(0)
	tr.Insert(nil, 4)
	if tr.Count(nil) != 4 || tr.Len() != 1 {
		t.Fatal("depth-0 trie should hold a single root leaf")
	}
}

// TestQuickTrieMatchesMap: a trie over random insertions agrees with a map
// keyed by the path.
func TestQuickTrieMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		depth := rng.Intn(4) + 1
		tr := New(depth)
		oracle := map[string]int64{}
		key := func(p []int) string {
			b := make([]byte, depth)
			for i, v := range p {
				b[i] = byte(v + 1)
			}
			return string(b)
		}
		for i := 0; i < 100; i++ {
			p := make([]int, depth)
			for j := range p {
				p[j] = rng.Intn(4) - 1 // None..2
			}
			d := int64(rng.Intn(3))
			tr.Insert(p, d)
			if d > 0 {
				oracle[key(p)] += d
			}
		}
		// Every oracle entry matches, and Walk covers exactly the oracle.
		walked := map[string]int64{}
		tr.Walk(func(p []int, c int64) { walked[key(p)] = c })
		if len(walked) != len(oracle) || tr.Len() != len(oracle) {
			return false
		}
		for k, v := range oracle {
			if walked[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestString(t *testing.T) {
	tr := New(2)
	tr.Insert([]int{0, None}, 2)
	tr.Insert([]int{1, 3}, 1)
	got := tr.String()
	want := "s1 -: 2\ns2 s4: 1\n"
	if got != want {
		t.Fatalf("String = %q, want %q", got, want)
	}
}
