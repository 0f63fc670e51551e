package cps

import (
	"sort"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sst"
)

// SelEntry aggregates everything MR-CPS knows about one relevant stratum
// selection σ ∈ [[Q]]*: the per-survey frequencies F(A_i, σ) of the initial
// representative answer, and the population limit L(σ).
type SelEntry struct {
	Sel   Selection
	Freq  []int64 // Freq[i] = F(A_i, σ)
	Limit int64   // L(σ) = |{t ∈ R : σ(t) = σ}|
}

// TotalFreq returns Σ_i F(A_i, σ).
func (e *SelEntry) TotalFreq() int64 {
	var n int64
	for _, f := range e.Freq {
		n += f
	}
	return n
}

// Stats holds the relevant stratum selections [[Q]]* keyed by Selection.Key,
// plus the query count.
type Stats struct {
	N       int // number of SSD queries
	Entries map[string]*SelEntry
}

// SortedKeys returns the selection keys in deterministic order.
func (s *Stats) SortedKeys() []string {
	keys := make([]string, 0, len(s.Entries))
	for k := range s.Entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// selections lists the entries' selections in the order of keys — the shape
// the stratified jobs take them in.
func (s *Stats) selections(keys []string) [][]int {
	sels := make([][]int, len(keys))
	for j, key := range keys {
		sels[j] = s.Entries[key].Sel
	}
	return sels
}

// CollectFrequencies builds an SST per initial answer A_i and derives [[Q]]*
// with the frequencies F(A_i, σ), as in Section 5.2.5.1. Selections are
// keyed by the *maximal* selection σ(t) of each answer tuple.
func CollectFrequencies(queries []*query.SSD, answers query.MultiAnswer, compiled [][]predicate.Pred) *Stats {
	n := len(queries)
	stats := &Stats{N: n, Entries: make(map[string]*SelEntry)}
	tries := make([]*sst.Trie, n)
	for i := range tries {
		tries[i] = sst.New(n)
	}
	for qi, ans := range answers {
		if ans == nil {
			continue
		}
		for _, stratum := range ans.Strata {
			for ti := range stratum {
				sel := SelectionOf(&stratum[ti], compiled)
				tries[qi].Insert(sel, 1)
			}
		}
	}
	for qi, trie := range tries {
		trie.Walk(func(path []int, count int64) {
			sel := Selection(path)
			key := sel.Key()
			entry, ok := stats.Entries[key]
			if !ok {
				entry = &SelEntry{Sel: sel.Clone(), Freq: make([]int64, n)}
				stats.Entries[key] = entry
			}
			entry.Freq[qi] = count
		})
	}
	return stats
}

// CompileQueries compiles every stratum condition of every query once.
func CompileQueries(queries []*query.SSD, schema *dataset.Schema) ([][]predicate.Pred, error) {
	compiled := make([][]predicate.Pred, len(queries))
	for qi, q := range queries {
		ps, err := q.Compile(schema)
		if err != nil {
			return nil, err
		}
		compiled[qi] = ps
	}
	return compiled, nil
}
