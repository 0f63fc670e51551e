package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
)

// MR-CPS (Section 5.2.5) samples and counts over strata that are not the
// queries' own: the stratum selections σ ∈ [[Q]]*. σ(t), the maximal
// selection a tuple satisfies, is the tuple of its classes under the n
// queries — what the fused scan computes per block — so the derived query Q′,
// the residual top-up and the limits L(σ) are one job, that scan with one
// more step before the match lists: look σ(t) up in the job's ordered
// selection list and use its position as the class. The limits are the job
// drawing nothing: every reducer output's N is a count. Keys stay dense
// (vector, position) pairs, so the job shuffles and reduces like MR-MQE and
// needs no codec of its own.

// SelectionKey packs a stratum selection — per query, a stratum index or -1
// for none — into a string usable as a map key: two big-endian bytes of
// (index+1) per query.
func SelectionKey(sel []int) string {
	buf := make([]byte, 0, 2*len(sel))
	for _, k := range sel {
		buf = appendStratum(buf, k)
	}
	return string(buf)
}

// appendStratum appends one query's level of a selection key.
func appendStratum(buf []byte, stratum int) []byte {
	return append(buf, byte((stratum+1)>>8), byte(stratum+1))
}

// selections is the derive step of a splitScan: it maps a block's per-query
// class vectors to vectors whose classes are positions in the selection list.
type selections struct {
	index map[string]int32 // SelectionKey → position
	// freqs[v][j] > 0 makes selection j a class of derived vector v; a row
	// whose σ the vector does not want is unclassified in it.
	freqs  [][]int
	chosen []map[int64]struct{} // chosen[v], when present: IDs never offered to v
}

func (d *selections) apply(sc *classScan, queries [][]int32, rows []dataset.Tuple) [][]int32 {
	n := len(rows)
	if cap(sc.derivedBuf) < (len(d.freqs)+1)*n {
		sc.derivedBuf = make([]int32, (len(d.freqs)+1)*n)
	}
	// The position of each row's σ, whoever wants it.
	sel, key := sc.derivedBuf[:n], sc.key
	for r := range sel {
		key = key[:0]
		for _, class := range queries {
			key = appendStratum(key, int(class[r]))
		}
		j, listed := d.index[string(key)]
		if !listed {
			j = -1
		}
		sel[r] = j
	}
	sc.key = key
	sc.derived = sc.derived[:0]
	for v, freqs := range d.freqs {
		var taken map[int64]struct{}
		if v < len(d.chosen) {
			taken = d.chosen[v]
		}
		class := sc.derivedBuf[(v+1)*n : (v+2)*n]
		for r, j := range sel {
			if j < 0 || freqs[j] <= 0 {
				j = -1
			} else if _, skip := taken[rows[r].ID]; skip {
				j = -1
			}
			class[r] = j
		}
		sc.derived = append(sc.derived, class)
	}
	return sc.derived
}

// selectionScan builds the scan of a job over the config's selection list;
// freqs is the derive step's table, one row per derived vector. The config
// may have crossed a socket, so every index it holds is checked.
func selectionScan(cfg *jobConfig, schema *dataset.Schema, freqs [][]int) (splitScan, error) {
	classes, err := classifiers(cfg.Queries, schema)
	if err != nil {
		return splitScan{}, err
	}
	derive := &selections{index: make(map[string]int32, len(cfg.Selections)), freqs: freqs}
	for j, sel := range cfg.Selections {
		fits := len(sel) == len(classes)
		for qi := 0; fits && qi < len(sel); qi++ {
			fits = sel[qi] >= -1 && sel[qi] < len(cfg.Queries[qi].Strata)
		}
		if !fits {
			return splitScan{}, fmt.Errorf("stratified: selection %d %v names no strata of the %d queries", j, sel, len(classes))
		}
		derive.index[SelectionKey(sel)] = int32(j)
	}
	for _, row := range freqs {
		if len(row) != len(cfg.Selections) {
			return splitScan{}, fmt.Errorf("stratified: %d frequencies for %d selections", len(row), len(cfg.Selections))
		}
	}
	for _, ids := range cfg.Chosen {
		derive.chosen = append(derive.chosen, excludeSet(ids))
	}
	return newSplitScan(classes, derive, excludeSet(cfg.Exclude)), nil
}

// classifiers lowers every query's strata to its cell-grid classifier.
func classifiers(queries []*query.SSD, schema *dataset.Schema) ([]*predicate.Classifier, error) {
	if len(queries) == 0 {
		return nil, fmt.Errorf("stratified: no queries")
	}
	classes := make([]*predicate.Classifier, len(queries))
	for qi, q := range queries {
		cls, err := q.Classifier(schema)
		if err != nil {
			return nil, err
		}
		classes[qi] = cls
	}
	return classes, nil
}

// buildSelectionSampleJob constructs the sampling job over derived strata:
// MR-MQE's shuffle and reduce, keyed (vector, selection position). A config
// without frequencies is the limits job of Figure 4: one vector classifying
// every listed selection and drawing 0 of each, named apart so that the -log
// lines, traces and per-job metrics tell MR-CPS's limits from its draws.
func buildSelectionSampleJob(cfg *jobConfig, schema *dataset.Schema) (*sampleJob, error) {
	name, derive, draw := "mr-selection-sample", cfg.Freqs, cfg.Freqs
	if len(cfg.Freqs) == 0 {
		every := make([]int, len(cfg.Selections))
		for j := range every {
			every[j] = 1
		}
		name, derive, draw = "mr-selection-limits", [][]int{every}, [][]int{make([]int, len(cfg.Selections))}
	}
	scan, err := selectionScan(cfg, schema, derive)
	if err != nil {
		return nil, err
	}
	return qsSamplingJob(name, scan, draw), nil
}

// SampleSelections draws, in one pass, for every vector v and listed
// selection j a simple random sample of freqs[v][j] tuples among those whose
// maximal selection σ(t) is sels[j], skipping the IDs in chosen[v] (chosen
// may be nil) and, for every vector, those in exclude. MR-CPS answers the
// derived query Q′ with it — one vector, no chosen IDs: MR-SQE over the
// strata σ, without constructing the conjunctions φ(σ) — and tops up its
// residual deficits — one vector per survey: MR-MQE over per-survey derived
// queries. It returns one answer per vector whose strata are the listed
// selections: Strata[j] is nil where freqs[v][j] is 0, and Sizes[j] is how
// many tuples the sample was drawn from (0 where freqs[v][j] is 0).
//
// With no freqs it runs the MapReduce program of Figure 4, MR-CPS's limits
// L(σ): one vector, drawing nothing, whose Sizes[j] counts the tuples
// outside exclude whose maximal selection is sels[j].
func SampleSelections(c *mapreduce.Cluster, queries []*query.SSD, schema *dataset.Schema, splits []dataset.Split,
	sels [][]int, freqs [][]int, chosen []map[int64]struct{}, exclude map[int64]struct{}, seed int64,
) (query.MultiAnswer, mapreduce.Metrics, error) {
	cfg := Options{Exclude: exclude}.config(schema, queries...)
	cfg.Job, cfg.Selections, cfg.Freqs = jobSelection, sels, freqs
	for _, ids := range chosen {
		cfg.Chosen = append(cfg.Chosen, sortedExclude(ids))
	}
	blocks := dataset.Blocks(splits)
	out, met, err := run(c, cfg, schema, blocks, seed)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	if len(freqs) == 0 { // the limits: one vector drawing nothing
		freqs = [][]int{make([]int, len(sels))}
	}
	answers, err := samples(out, blocks, freqs)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	return answers, met, nil
}
