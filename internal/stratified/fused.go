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
// block's size column when it carries one, else from the drawn rows; no
// tuple is copied until the answer is built (samples). For MR-SQE (one query)
// and MR-MQE a vector is a query and a class one of its strata; MR-CPS's
// derived query Q′ and residual phase derive their vectors from the queries'
// (selection.go). A vector that draws nothing — every frequency 0, as in
// MR-CPS's limits L(σ) (Figure 4) — keeps a counter per class in place of its
// match lists and emits ({}, N) per class it saw.
//
// A task's output is a pure function of (seed, rows, job config) on every
// backend, whether its block carries columns or not. The match lists — 4 bytes per
// matched (row, vector) — are kept with the block buffers in a scratch the
// next map task reuses (scanFree).
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

func (s *fusedStage) MapSplit(ctx *mapreduce.TaskContext, b dataset.Block, emit func(QSKey, refSample)) (matches, combined int64) {
	sc := getScan()
	defer sc.release()
	lists := sc.matchLists(s.freqs)
	// counts[v][k] for a vector v that draws nothing; no vector of a
	// sampling pass does, and it allocates nothing here.
	var counts [][]int64
	for v, f := range s.freqs {
		if !slices.ContainsFunc(f, func(want int) bool { return want > 0 }) {
			if counts == nil {
				counts = make([][]int64, len(s.freqs))
			}
			counts[v] = make([]int64, len(f))
		}
	}
	counted := func(v int) bool { return counts != nil && counts[v] != nil }
	for lo := 0; lo < b.Len(); lo += scanBlock {
		hi := min(lo+scanBlock, b.Len())
		for v, class := range s.classify(sc, b, lo, hi) {
			if !counted(v) {
				appendMatches(lists[v], class, int32(lo))
				continue
			}
			for _, k := range class {
				if k >= 0 {
					counts[v][k]++
				}
			}
		}
	}
	task := int32(ctx.Task)
	for v, f := range s.freqs {
		for k, want := range f {
			sample := refSample{N: int64(len(lists[v][k]))}
			if counted(v) {
				sample.N = counts[v][k]
			} else if sample.N > 0 {
				drawn, _ := sampling.DrawWithoutReplacement(lists[v][k], want, ctx.Rand)
				sample.Rows = make([]rowRef, len(drawn))
				for i, row := range drawn {
					sample.Rows[i] = rowRef{task, row}
					sample.Bytes += wireSize(b, row)
				}
				// The paper's intermediate-sample-size measurement.
				ctx.Observe("reservoir_size", int64(len(drawn)))
			}
			if sample.N > 0 {
				matches += sample.N
				emit(QSKey{v, k}, sample)
			}
		}
	}
	return matches, matches
}

// appendMatches appends to of[k] the index of every row of a block whose
// class is k, the block starting at row lo of the split. It is the hot loop
// of a sampling pass, kept out of MapSplit: inlined beside the counting
// branch it ran ≈ 12 % slower (BenchmarkFusedMapSplit/narrow, twenty
// alternated runs).
//
//go:noinline
func appendMatches(of [][]int32, class []int32, lo int32) {
	for i, k := range class {
		if k >= 0 {
			of[k] = append(of[k], lo+int32(i))
		}
	}
}

// wireSize is b.Rows[row].ByteSize(), read from the block's size column when
// it carries one.
func wireSize(b dataset.Block, row int32) int64 {
	if b.Sizes != nil {
		return int64(b.Sizes[row])
	}
	return int64(b.Rows[row].ByteSize())
}

// naiveStage is the map stage of the Figure 1 baseline: the same scan, with
// every match forwarded to the shuffle as a singleton — rows outer, vectors
// inner, the order a per-record mapper emits in — and nothing combined.
type naiveStage struct{ splitScan }

func (s *naiveStage) MapSplit(ctx *mapreduce.TaskContext, b dataset.Block, emit func(QSKey, refSample)) (matches, combined int64) {
	sc := getScan()
	defer sc.release()
	task := int32(ctx.Task)
	for lo := 0; lo < b.Len(); lo += scanBlock {
		hi := min(lo+scanBlock, b.Len())
		classes := s.classify(sc, b, lo, hi)
		for i := lo; i < hi; i++ {
			for v, class := range classes {
				if k := class[i-lo]; k >= 0 {
					row := int32(i)
					emit(QSKey{v, int(k)}, refSample{Rows: []rowRef{{task, row}}, N: 1, Bytes: wireSize(b, row)})
					matches++
				}
			}
		}
	}
	return matches, 0
}

// splitScan is the classification half of a map task, shared by the fused
// and naive stages. A block of rows at a time, the branch-free column
// kernel (predicate.ClassifyColumns) fills one class vector per query, from
// the block's column mirror when it carries one, else from attributes
// gathered out of its rows; the MR-CPS jobs derive their own vectors from
// those; excluded rows end up unclassified in every vector.
type splitScan struct {
	queries []*predicate.Classifier
	tested  []int       // testedAttrs(queries)
	derive  *selections // nil: the stage consumes the queries' vectors
	exclude map[int64]struct{}
}

func newSplitScan(queries []*predicate.Classifier, derive *selections, exclude map[int64]struct{}) splitScan {
	return splitScan{queries: queries, tested: testedAttrs(queries), derive: derive, exclude: exclude}
}

// classify returns the class vectors of the block's rows [lo, hi), indexed
// from lo and valid until the next call.
func (s *splitScan) classify(sc *classScan, b dataset.Block, lo, hi int) [][]int32 {
	classes := sc.classify(s.queries, s.tested, b, lo, hi)
	rows := b.Rows[lo:hi]
	if s.derive != nil {
		classes = s.derive.apply(sc, classes, rows)
	}
	if len(s.exclude) > 0 {
		for i := range rows {
			if _, skip := s.exclude[rows[i].ID]; skip {
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
// and its reused scratch stays a few dozen KB whatever the split size, large
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

// scanFree holds the scratch of finished map tasks for the next ones. It is
// a free list, not a sync.Pool: a pool drops what sat idle through a
// collection and keeps each P's private slot from the others, so a daemon
// pass now and then grew a fresh scratch — ≈ 1.7 MB of match lists at 10⁵
// residents and eight queries, 13 times in 3 000 passes of
// BenchmarkServePass on two cores. The list holds at most as many scratches
// as map tasks ever ran at once in the process.
var scanFree struct {
	sync.Mutex
	list []*classScan
}

// getScan takes a scratch off the free list, or a new one.
func getScan() *classScan {
	scanFree.Lock()
	defer scanFree.Unlock()
	n := len(scanFree.list)
	if n == 0 {
		return new(classScan)
	}
	sc := scanFree.list[n-1]
	scanFree.list = scanFree.list[:n-1]
	return sc
}

// release returns the scratch to the free list without its views into the
// caller's columns.
func (sc *classScan) release() {
	clear(sc.cols)
	scanFree.Lock()
	scanFree.list = append(scanFree.list, sc)
	scanFree.Unlock()
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
// the block's rows [lo, hi), indexed from lo. tested is testedAttrs(cls).
// The tested attributes are read from the block's mirror when it carries
// one, else gathered once from the rows. The vectors are valid until the
// next call.
func (sc *classScan) classify(cls []*predicate.Classifier, tested []int, b dataset.Block, lo, hi int) [][]int32 {
	rows := b.Rows[lo:hi]
	n := len(rows)
	if len(tested) > 0 {
		width := tested[len(tested)-1] + 1
		sc.cols = slices.Grow(sc.cols[:0], width)[:width]
	}
	if b.Cols != nil {
		for _, j := range tested {
			sc.cols[j] = b.Cols[j][lo:hi]
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
