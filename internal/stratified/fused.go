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

// fusedStage is the map + combine stage of every sampling job (Figure 2): one
// scan of the split, then one draw per key. The scan classifies every tuple
// once per query and appends its row index to the match list of the (vector,
// class) it falls in, consuming no randomness; then each key, in (vector,
// class) order, draws min(f, n) of its n matches without replacement from the
// task's one random stream — a resident split needs no reservoir to hand the
// reducer an SRS of its stratum tagged with the stratum's size. The task
// emits one ({sample}, N) pair per key it saw: what the Figure 1 emission
// stream plus the combiner produce, without the stream. The sample is the
// drawn rows' references, with their tuples' wire size summed from the
// split's size column when the pass has one, else from the drawn rows; no
// tuple is copied until the answer is built (samples). For MR-SQE (one query)
// and MR-MQE a vector is a query and a class one of its strata; MR-CPS's
// derived query Q′ and residual phase derive their vectors from the queries'
// (selection.go).
//
// A task's output is a pure function of (seed, split, job config) on every
// backend, with or without resident columns. The match lists — 4 bytes per
// matched (row, vector) — are pooled with the block buffers.
type fusedStage struct {
	splitScan
	freqs [][]int // freqs[v][k] is the sample size of class k of vector v
}

// stratumFreqs is MR-MQE's frequency table: per query, per stratum.
func stratumFreqs(queries []*query.SSD) [][]int {
	freqs := make([][]int, len(queries))
	for qi, q := range queries {
		freqs[qi] = make([]int, len(q.Strata))
		for k, s := range q.Strata {
			freqs[qi][k] = s.Freq
		}
	}
	return freqs
}

func (s *fusedStage) MapSplit(ctx *mapreduce.TaskContext, split []dataset.Tuple, emit func(QSKey, refSample)) (matches, combined int64) {
	sc := scanPool.Get().(*classScan)
	defer sc.release()
	lists := sc.matchLists(s.freqs)
	for lo := 0; lo < len(split); lo += scanBlock {
		hi := min(lo+scanBlock, len(split))
		for v, class := range s.classify(sc, ctx.Task, split, lo, hi) {
			of := lists[v]
			for i, k := range class {
				if k >= 0 {
					of[k] = append(of[k], int32(lo+i))
				}
			}
		}
	}
	sizes, task := s.residentSizes(ctx.Task, split), int32(ctx.Task)
	for v, f := range s.freqs {
		for k, want := range f {
			rows := lists[v][k]
			if len(rows) == 0 {
				continue
			}
			matches += int64(len(rows))
			drawn, _ := sampling.DrawWithoutReplacement(rows, want, ctx.Rand)
			sample := refSample{Rows: make([]rowRef, len(drawn)), N: int64(len(rows))}
			for i, row := range drawn {
				sample.Rows[i] = rowRef{task, row}
				sample.Bytes += wireSize(sizes, split, row)
			}
			// The paper's intermediate-sample-size measurement.
			ctx.Observe("reservoir_size", int64(len(drawn)))
			emit(QSKey{v, k}, sample)
		}
	}
	return matches, matches
}

// wireSize is split[row].ByteSize(), read from the split's size column when
// there is one.
func wireSize(sizes []int32, split []dataset.Tuple, row int32) int64 {
	if sizes != nil {
		return int64(sizes[row])
	}
	return int64(split[row].ByteSize())
}

// naiveStage is the map stage of the Figure 1 baseline: the same scan, with
// every match forwarded to the shuffle as a singleton — rows outer, vectors
// inner, the order a per-record mapper emits in — and nothing combined.
type naiveStage struct{ splitScan }

func (s *naiveStage) MapSplit(ctx *mapreduce.TaskContext, split []dataset.Tuple, emit func(QSKey, refSample)) (matches, combined int64) {
	sc := scanPool.Get().(*classScan)
	defer sc.release()
	sizes, task := s.residentSizes(ctx.Task, split), int32(ctx.Task)
	for lo := 0; lo < len(split); lo += scanBlock {
		hi := min(lo+scanBlock, len(split))
		classes := s.classify(sc, ctx.Task, split, lo, hi)
		for i := lo; i < hi; i++ {
			for v, class := range classes {
				if k := class[i-lo]; k >= 0 {
					row := int32(i)
					emit(QSKey{v, int(k)}, refSample{Rows: []rowRef{{task, row}}, N: 1, Bytes: wireSize(sizes, split, row)})
					matches++
				}
			}
		}
	}
	return matches, 0
}

// countStage is the fused stage with a counter per class in place of a
// match list — the map + combine stage of the counting job: one (class, count)
// pair per class of the scan's one vector the split held.
type countStage struct {
	splitScan
	classes int
}

func (s *countStage) MapSplit(ctx *mapreduce.TaskContext, split []dataset.Tuple, emit func(int, int64)) (matches, combined int64) {
	counts := make([]int64, s.classes)
	sc := scanPool.Get().(*classScan)
	defer sc.release()
	for lo := 0; lo < len(split); lo += scanBlock {
		for _, k := range s.classify(sc, ctx.Task, split, lo, min(lo+scanBlock, len(split)))[0] {
			if k >= 0 {
				counts[k]++
				matches++
			}
		}
	}
	for k, n := range counts {
		if n > 0 {
			emit(k, n)
		}
	}
	return matches, matches
}

// splitScan is the classification half of a map task, shared by the sampling
// and counting stages. A block of rows at a time, the branch-free column
// kernel (predicate.ClassifyColumns) fills one class vector per query, from
// the split's resident columns when the pass has them, else from attributes
// gathered out of the rows; the MR-CPS jobs derive their own vectors from
// those; excluded rows end up unclassified in every vector.
type splitScan struct {
	queries []*predicate.Classifier
	tested  []int       // testedAttrs(queries)
	derive  *selections // nil: the stage consumes the queries' vectors
	exclude map[int64]struct{}
	// columns[task] is the mirror of the task's split (Options.Columns'
	// precondition) and spares the gather; sizes[task] is its wire-size
	// column (Options.Sizes) and spares sizing the drawn rows.
	columns []dataset.Columns
	sizes   [][]int32
}

func newSplitScan(queries []*predicate.Classifier, derive *selections, exclude map[int64]struct{}, columns []dataset.Columns, sizes [][]int32) splitScan {
	return splitScan{queries: queries, tested: testedAttrs(queries), derive: derive, exclude: exclude, columns: columns, sizes: sizes}
}

// residentSizes is the task's size column, or nil when the pass has none for
// the split (the length test is classify's).
func (s *splitScan) residentSizes(task int, split []dataset.Tuple) []int32 {
	if task < len(s.sizes) && len(s.sizes[task]) == len(split) {
		return s.sizes[task]
	}
	return nil
}

// classify returns the class vectors of split[lo:hi], the task's next
// block, indexed from lo and valid until the next call.
func (s *splitScan) classify(sc *classScan, task int, split []dataset.Tuple, lo, hi int) [][]int32 {
	// The length test tells "no mirror for this task" (none kept, or the
	// split was pruned to nil beside it) from "mirror"; it is not an identity
	// check.
	var resident dataset.Columns
	if task < len(s.columns) && s.columns[task].Len() == len(split) {
		resident = s.columns[task]
	}
	classes := sc.classify(s.queries, s.tested, resident, split, lo, hi)
	if s.derive != nil {
		classes = s.derive.apply(sc, classes, split[lo:hi])
	}
	if len(s.exclude) > 0 {
		for i := range split[lo:hi] {
			if _, skip := s.exclude[split[lo+i].ID]; skip {
				for _, class := range classes {
					class[i] = -1
				}
			}
		}
	}
	return classes
}

// scanBlock is how many rows are classified ahead of their consumer: small
// enough that a pass's class vectors and gathered columns stay cache-resident
// and its pooled scratch stays a few dozen KB whatever the split size, large
// enough to amortise the kernel's per-box loop set-up.
const scanBlock = 1024

// classScan is the reusable scratch of one split scan: the column views the
// kernel reads, one class vector per classifier and the match lists.
type classScan struct {
	cols     dataset.Columns // per attribute: the block's values, nil if untested
	gathered []int32         // backing of cols when they are gathered from rows
	classes  [][]int32
	classBuf []int32     // backing of classes
	lists    [][][]int32 // lists[v][k]: the split's rows in class k of vector v
	// Scratch of the derive step (selections.apply).
	derived    [][]int32
	derivedBuf []int32 // backing of derived, and of the selection vector
	key        []byte
}

var scanPool = sync.Pool{New: func() any { return new(classScan) }}

// release returns the scratch to the pool without its views into the
// caller's columns.
func (sc *classScan) release() {
	clear(sc.cols)
	scanPool.Put(sc)
}

// matchLists empties and returns one list per (vector, class) of freqs.
func (sc *classScan) matchLists(freqs [][]int) [][][]int32 {
	for len(sc.lists) < len(freqs) {
		sc.lists = append(sc.lists, nil)
	}
	lists := sc.lists[:len(freqs)]
	for v, f := range freqs {
		for len(lists[v]) < len(f) {
			lists[v] = append(lists[v], nil)
		}
		for k := range f {
			lists[v][k] = lists[v][k][:0]
		}
	}
	return lists
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
