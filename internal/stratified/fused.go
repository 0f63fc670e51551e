package stratified

import (
	"slices"
	"sync"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
)

// fusedStage is the map + combine stage of MR-SQE and MR-MQE (Figure 2) as
// one scan of the split: every tuple is classified once per query and its row
// index offered straight to the Algorithm L reservoir of the (query, stratum)
// it falls in. Only the ≤ f_k sampled tuples per key are materialised, and
// the task emits one ({sample}, N) pair per key it saw — what the Figure 1
// emission stream plus the combiner produce, without building the stream.
// MR-SQE is the one-query case.
//
// Classification runs ahead of the reservoirs a block of rows at a time: the
// branch-free column kernel (predicate.ClassifyColumns) fills one class
// vector per query, from the split's resident columns when the pass has
// them and from attributes gathered out of the rows otherwise. The reservoirs
// then consume the vectors in tuple-outer, query-inner order from the task's
// single random stream, so a task's output is a pure function of (seed,
// split, query list) on every backend, with or without resident columns.
type fusedStage[K comparable] struct {
	queries []*query.SSD
	classes []*predicate.Classifier // aligned with queries
	key     func(query, stratum int) K
	exclude map[int64]struct{}
	tested  []int // testedAttrs(classes)
	// columns[task] is the mirror of the task's split (Options.Columns'
	// precondition) and spares the gather.
	columns []dataset.Columns
}

func newFusedStage[K comparable](queries []*query.SSD, classes []*predicate.Classifier, key func(query, stratum int) K, opts Options) *fusedStage[K] {
	return &fusedStage[K]{
		queries: queries, classes: classes, tested: testedAttrs(classes),
		key: key, exclude: opts.Exclude, columns: opts.Columns,
	}
}

func (s *fusedStage[K]) MapSplit(ctx *mapreduce.TaskContext, split []dataset.Tuple, emit func(K, WeightedTuples)) (matches int64) {
	// One reservoir per (query, stratum), made at the key's first match.
	reservoirs := make([][]*sampling.Reservoir[int32], len(s.queries))
	for qi, q := range s.queries {
		reservoirs[qi] = make([]*sampling.Reservoir[int32], len(q.Strata))
	}
	// The length test tells "no mirror for this task" (none kept, or the
	// split was pruned to nil beside it) from "mirror"; it is not an identity
	// check.
	var resident dataset.Columns
	if ctx.Task < len(s.columns) && s.columns[ctx.Task].Len() == len(split) {
		resident = s.columns[ctx.Task]
	}
	sc := scanPool.Get().(*classScan)
	defer sc.release()
	checkExclude := len(s.exclude) > 0
	for lo := 0; lo < len(split); lo += scanBlock {
		hi := min(lo+scanBlock, len(split))
		classes := sc.classify(s.classes, s.tested, resident, split, lo, hi)
		for ti := lo; ti < hi; ti++ {
			if checkExclude {
				if _, skip := s.exclude[split[ti].ID]; skip {
					continue
				}
			}
			for qi, class := range classes {
				k := class[ti-lo]
				if k < 0 {
					continue
				}
				res := reservoirs[qi][k]
				if res == nil {
					res = sampling.NewReservoir[int32](s.queries[qi].Strata[k].Freq, ctx.Rand)
					reservoirs[qi][k] = res
				}
				res.Add(int32(ti))
				matches++
			}
		}
	}
	for qi := range reservoirs {
		for k, res := range reservoirs[qi] {
			if res == nil {
				continue
			}
			rows := res.Sample()
			sample := make([]dataset.Tuple, len(rows))
			for i, ti := range rows {
				sample[i] = split[ti]
			}
			// The paper's intermediate-sample-size measurement.
			ctx.Observe("reservoir_size", int64(len(sample)))
			emit(s.key(qi, k), WeightedTuples{Sample: sample, N: res.Seen()})
		}
	}
	return matches
}

// scanBlock is how many rows are classified ahead of their consumer: small
// enough that a pass's class vectors and gathered columns stay cache-resident
// and its pooled scratch stays a few dozen KB whatever the split size, large
// enough to amortise the kernel's per-box loop set-up.
const scanBlock = 1024

// classScan is the reusable scratch of one split scan: the column views the
// kernel reads and one class vector per classifier.
type classScan struct {
	cols     dataset.Columns // per attribute: the block's values, nil if untested
	gathered []int32         // backing of cols when they are gathered from rows
	classes  [][]int32
	classBuf []int32 // backing of classes
}

var scanPool = sync.Pool{New: func() any { return new(classScan) }}

// release returns the scratch to the pool without its views into the
// caller's columns.
func (sc *classScan) release() {
	clear(sc.cols)
	scanPool.Put(sc)
}

// testedAttrs is the ascending union of the attributes the classifiers read
// from columns.
func testedAttrs(cls []*predicate.Classifier) []int {
	var tested []int
	for _, c := range cls {
		tested = append(tested, c.Attrs()...)
	}
	slices.Sort(tested)
	return slices.Compact(tested)
}

// classify returns, for each classifier, the class (stratum index or -1) of
// split[lo:hi], indexed from lo. tested is testedAttrs(cls). resident, when
// non-nil, is the whole split's column mirror; otherwise the tested
// attributes are gathered once from the rows. The vectors are valid until
// the next call.
func (sc *classScan) classify(cls []*predicate.Classifier, tested []int, resident dataset.Columns, split []dataset.Tuple, lo, hi int) [][]int32 {
	rows := split[lo:hi]
	n := len(rows)
	if len(tested) > 0 {
		width := tested[len(tested)-1] + 1
		sc.cols = slices.Grow(sc.cols[:0], width)[:width]
	}
	if resident != nil {
		for _, j := range tested {
			sc.cols[j] = resident[j][lo:hi]
		}
	} else {
		if cap(sc.gathered) < len(tested)*n {
			sc.gathered = make([]int32, len(tested)*n)
		}
		for x, j := range tested {
			sc.cols[j] = sc.gathered[x*n : (x+1)*n]
		}
		for i := range rows {
			attrs := rows[i].Attrs
			for _, j := range tested {
				sc.cols[j][i] = int32(attrs[j])
			}
		}
	}
	if cap(sc.classBuf) < len(cls)*n {
		sc.classBuf = make([]int32, len(cls)*n)
	}
	sc.classes = sc.classes[:0]
	for qi, c := range cls {
		class := sc.classBuf[qi*n : (qi+1)*n]
		c.ClassifyColumns(sc.cols, rows, class)
		sc.classes = append(sc.classes, class)
	}
	return sc.classes
}
