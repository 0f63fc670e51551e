package live

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Op is a mutation-log operation.
type Op uint8

const (
	// OpInsert adds a new member (Mutation.Tuple, with a fresh ID).
	OpInsert Op = iota
	// OpDelete removes the member with Mutation.ID.
	OpDelete
	// OpUpdate replaces the attributes of the member with Mutation.Tuple.ID;
	// when the new attributes move the member to a different stratum of a
	// registered query, the update is handled as delete + insert.
	OpUpdate
)

// String names the operation ("insert", "delete", "update").
func (o Op) String() string {
	switch o {
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpUpdate:
		return "update"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// ParseOp maps an operation name back to the Op, for wire decoding.
func ParseOp(name string) (Op, error) {
	for _, o := range []Op{OpInsert, OpDelete, OpUpdate} {
		if o.String() == name {
			return o, nil
		}
	}
	return 0, fmt.Errorf("live: unknown mutation op %q (want insert, delete or update)", name)
}

// Mutation is one entry of the mutation log.
type Mutation struct {
	Op    Op
	Tuple dataset.Tuple // Insert/Update: the full new tuple
	ID    int64         // Delete: the member to remove
}

// Rejection reports one mutation of a batch that could not be applied
// (unknown ID, duplicate ID, schema violation). The rest of the batch is
// unaffected.
type Rejection struct {
	Index int    `json:"index"`
	Err   string `json:"error"`
}

// Applied summarizes one Apply batch.
type Applied struct {
	Applied  int         `json:"applied"`
	Inserts  int         `json:"inserts"`
	Deletes  int         `json:"deletes"`
	Updates  int         `json:"updates"`
	Repairs  int         `json:"repairs,omitempty"`
	Rejected []Rejection `json:"rejected,omitempty"`
	// Seq is the population's total applied-mutation count after this batch —
	// the mutation epoch ad-hoc query caching keys on.
	Seq int64 `json:"seq"`
}

// Config configures a live population.
type Config struct {
	// StalenessBound is the maximum uncompensated deletions (d1+d2) any
	// stratum reservoir tolerates before it is repaired from the resident
	// splits. Defaults to 64. Lower bounds repair more often (higher scan
	// cost) but keep the sample deficit smaller.
	StalenessBound int
}

// tupleLoc addresses one member inside the resident splits. Every daemon
// keeps one per member, so the halves are int32.
type tupleLoc struct {
	split, idx int32
}

// Population is the resident population every daemon serves from, with its
// registered standing SSD queries. It keeps the splits handed to it at
// construction, each as a resident block (dataset.ResidentBlock: the rows,
// the column-major mirror a pass, a registration and a repair classify from,
// and the wire-size column a pass counts shuffle bytes from), beside its
// bounding box, which pruning tests. Mutations edit the blocks, so engine
// passes run over current data, and stratum repairs rescan them. A block's
// rows may be shared with the relation they were cut from
// (dataset.Partition), so the population never writes storage it did not
// allocate: it copies a block's rows at that block's first edit, and from
// then on edits its own copy in place, one block edit at each of insert,
// update and removeAt, under the write lock; Rebalance builds new blocks.
// The id index mutations look members up in is built by the first Apply
// (and again by the first after a Rebalance), so a population nothing
// mutates never holds one. All methods are safe for concurrent use;
// mutations serialize behind a write lock while snapshots and pass execution
// share a read lock.
type Population struct {
	mu     sync.RWMutex
	schema *dataset.Schema
	blocks []dataset.Block
	// owned[i] reports that blocks[i].Rows is storage the population
	// allocated, which an edit may write in place.
	owned []bool
	// bounds[i] holds one inclusive interval per schema field that contains
	// every row of blocks[i] — not always the tightest: a delete leaves it as
	// it was. Nil for a block that has had no rows since the last build.
	bounds [][]predicate.Interval
	// loc finds a member's split and row by ID; nil until an Apply needs it.
	loc     map[int64]tupleLoc
	members int
	next    int // round-robin insert target
	bound   int
	queries map[string]*Standing

	seq atomic.Int64 // total applied mutations, the mutation epoch

	// Counters (under mu).
	rowBytes                            int64 // Σ Tuple.ResidentBytes over the blocks
	inserts, deletes, updates, rejected int64
	repairs, repairScanned              int64
	maxStaleness                        int64
	maintainNanos                       mapreduce.Histogram // per Apply batch
	maintainMuts                        int64
	repairNanos                         mapreduce.Histogram

	// Scratch of classify, used under the write lock only: one block's
	// classes, and the views of its tested columns the kernel reads.
	classes []int32
	view    dataset.Columns
}

// classBlock is how many rows classify hands its caller at a time, the
// pass's block: the class buffer stays 4 KB whatever the split size.
const classBlock = 1024

// NewPopulation returns a mutable population over the resident splits
// (typically the ones the serve daemon partitioned at startup). It reads the
// splits and never writes them: a mutation edits a copy of the split it
// touches, so the relation they were cut from stays as it was. The splits'
// union must have unique IDs.
func NewPopulation(schema *dataset.Schema, splits []dataset.Split, cfg Config) (*Population, error) {
	if len(splits) == 0 {
		return nil, fmt.Errorf("live: population needs at least one split")
	}
	if cfg.StalenessBound <= 0 {
		cfg.StalenessBound = 64
	}
	// IDs that strictly ascend across the splits in order are unique, which
	// every contiguous or skewed cut of a relation loaded in ID order is: one
	// pass proves it and keeps nothing. Anything else (an ID of MinInt64
	// included) falls back to sorting a copy. Either way the index a check
	// could leave behind waits for the first mutation.
	var rowBytes int64
	members, ascending, last := 0, true, int64(math.MinInt64)
	for _, split := range splits {
		for i := range split {
			ascending = ascending && split[i].ID > last
			last = split[i].ID
		}
		members += len(split)
		rowBytes += split.ResidentBytes()
	}
	if !ascending {
		ids := make([]int64, 0, members)
		for _, split := range splits {
			for i := range split {
				ids = append(ids, split[i].ID)
			}
		}
		slices.Sort(ids)
		for i := 1; i < len(ids); i++ {
			if ids[i] == ids[i-1] {
				return nil, fmt.Errorf("live: duplicate tuple id %d across splits", ids[i])
			}
		}
	}
	p := &Population{
		schema:   schema,
		members:  members,
		rowBytes: rowBytes,
		bound:    cfg.StalenessBound,
		queries:  make(map[string]*Standing),
	}
	p.setSplits(splits, false)
	return p, nil
}

// setSplits installs splits as the resident blocks, their rows owned when the
// population allocated them, and builds their boxes.
func (p *Population) setSplits(splits []dataset.Split, owned bool) {
	p.blocks = make([]dataset.Block, len(splits))
	p.owned = make([]bool, len(splits))
	p.bounds = make([][]predicate.Interval, len(splits))
	for si, split := range splits {
		p.blocks[si] = dataset.ResidentBlock(split, p.schema.NumFields())
		p.owned[si] = owned
		for i := range split {
			p.bounds[si] = widen(p.bounds[si], split[i].Attrs)
		}
	}
}

// widen returns box grown to contain attrs, in place; a nil box becomes the
// point attrs.
func widen(box []predicate.Interval, attrs []int64) []predicate.Interval {
	if box == nil {
		box = make([]predicate.Interval, len(attrs))
		for j, v := range attrs {
			box[j] = predicate.Interval{Lo: v, Hi: v}
		}
		return box
	}
	for j, v := range attrs {
		box[j].Lo = min(box[j].Lo, v)
		box[j].Hi = max(box[j].Hi, v)
	}
	return box
}

// classify walks the resident rows in block and row order, classBlock rows
// at a time, and hands fn each run of rows with their classes under cls (a
// stratum index, or -1). A run is classified from its block's column mirror
// by the pass's kernel (a row-wise classifier reads the rows instead).
// Nothing is copied per row. The classes are the population's scratch, valid
// until fn returns: the caller holds the write lock.
func (p *Population) classify(cls *predicate.Classifier, fn func(rows []dataset.Tuple, classes []int32)) {
	if p.classes == nil {
		p.classes = make([]int32, classBlock)
		p.view = make(dataset.Columns, p.schema.NumFields())
	}
	attrs := cls.Attrs() // nil for a row-wise classifier, which reads no column
	for _, b := range p.blocks {
		for lo := 0; lo < b.Len(); lo += classBlock {
			hi := min(lo+classBlock, b.Len())
			rows, classes := b.Rows[lo:hi], p.classes[:hi-lo]
			for _, j := range attrs {
				p.view[j] = b.Cols[j][lo:hi]
			}
			cls.ClassifyColumns(p.view, rows, classes)
			fn(rows, classes)
		}
	}
	clear(p.view) // the views would keep a mirror a Rebalance replaces reachable
}

// Len returns the current population size.
func (p *Population) Len() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.members
}

// Seq returns the mutation epoch: the total number of applied mutations.
func (p *Population) Seq() int64 { return p.seq.Load() }

// StalenessBound returns the configured repair trigger.
func (p *Population) StalenessBound() int { return p.bound }

// Acquire hands an engine pass the resident blocks, one per split, their
// bounding boxes (index-aligned: bounds[i] contains every row of blocks[i],
// nil for a block that has had no rows since the last build) and a release
// function. All of it is read-locked until released: mutations wait, which
// is what keeps a pass's view consistent. It is the only way a pass reaches
// the population, live or not; standing queries never need it — their
// answers come from the warm reservoirs.
func (p *Population) Acquire() (blocks []dataset.Block, bounds [][]predicate.Interval, release func()) {
	p.mu.RLock()
	return p.blocks, p.bounds, p.mu.RUnlock
}

// Splits returns the current number of resident splits (Rebalance re-cuts
// them).
func (p *Population) Splits() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.blocks)
}

// ResidentBytes reports the memory the resident population occupies by
// layout: the row-major rows, and the blocks' column-major mirrors with
// their wire-size columns.
func (p *Population) ResidentBytes() (rows, columns int64) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	for _, b := range p.blocks {
		columns += b.Cols.ResidentBytes() + 4*int64(len(b.Sizes))
	}
	return p.rowBytes, columns
}

// Apply ingests one mutation-log batch. Invalid mutations are rejected
// individually (reported in the result); valid ones apply in order, each
// updating the resident splits and every registered standing query. Repairs
// triggered by the staleness bound run inline and are counted in the result.
func (p *Population) Apply(muts []Mutation) Applied {
	start := time.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.index()
	repairsBefore := p.repairs
	var res Applied
	for i := range muts {
		if err := p.applyOne(&muts[i]); err != nil {
			p.rejected++
			res.Rejected = append(res.Rejected, Rejection{Index: i, Err: err.Error()})
			continue
		}
		res.Applied++
		switch muts[i].Op {
		case OpInsert:
			res.Inserts++
		case OpDelete:
			res.Deletes++
		case OpUpdate:
			res.Updates++
		}
	}
	p.inserts += int64(res.Inserts)
	p.deletes += int64(res.Deletes)
	p.updates += int64(res.Updates)
	res.Repairs = int(p.repairs - repairsBefore)
	res.Seq = p.seq.Add(int64(res.Applied))
	p.maintainNanos.Observe(time.Since(start).Nanoseconds())
	p.maintainMuts += int64(res.Applied)
	return res
}

// index builds the id index from the splits if it does not exist yet.
func (p *Population) index() {
	if p.loc != nil {
		return
	}
	p.loc = make(map[int64]tupleLoc, p.members)
	for si, b := range p.blocks {
		for i := range b.Rows {
			p.loc[b.Rows[i].ID] = tupleLoc{split: int32(si), idx: int32(i)}
		}
	}
}

// own returns block si for an edit, copying its rows first unless the
// population allocated them: the splits it was handed may be windows onto a
// relation their caller still holds.
func (p *Population) own(si int32) *dataset.Block {
	b := &p.blocks[si]
	if !p.owned[si] {
		b.Rows = slices.Clone(b.Rows)
		p.owned[si] = true
	}
	return b
}

// applyOne applies a single mutation under the write lock.
func (p *Population) applyOne(m *Mutation) error {
	switch m.Op {
	case OpInsert:
		t := m.Tuple
		if err := t.ValidFor(p.schema); err != nil {
			return err
		}
		if _, dup := p.loc[t.ID]; dup {
			return fmt.Errorf("live: insert of duplicate id %d", t.ID)
		}
		si := p.next
		p.next = (p.next + 1) % len(p.blocks)
		b := p.own(int32(si))
		b.Append(t)
		p.bounds[si] = widen(p.bounds[si], t.Attrs)
		p.rowBytes += t.ResidentBytes()
		p.members++
		p.loc[t.ID] = tupleLoc{split: int32(si), idx: int32(b.Len() - 1)}
		for _, st := range p.queries {
			st.insert(t)
		}
	case OpDelete:
		l, ok := p.loc[m.ID]
		if !ok {
			return fmt.Errorf("live: delete of unknown id %d", m.ID)
		}
		old := p.blocks[l.split].Rows[l.idx]
		p.removeAt(l)
		for _, st := range p.queries {
			st.remove(p, old)
		}
	case OpUpdate:
		t := m.Tuple
		if err := t.ValidFor(p.schema); err != nil {
			return err
		}
		l, ok := p.loc[t.ID]
		if !ok {
			return fmt.Errorf("live: update of unknown id %d", t.ID)
		}
		old := p.blocks[l.split].Rows[l.idx]
		p.own(l.split).Set(int(l.idx), t)
		p.bounds[l.split] = widen(p.bounds[l.split], t.Attrs)
		p.rowBytes += t.ResidentBytes() - old.ResidentBytes()
		for _, st := range p.queries {
			st.update(p, old, t)
		}
	default:
		return fmt.Errorf("live: unknown op %v", m.Op)
	}
	return nil
}

// removeAt swap-removes the member at l from its block, fixing the moved
// member's location index. The block's box stays as it was: too large still
// prunes soundly.
func (p *Population) removeAt(l tupleLoc) {
	b := p.own(l.split)
	delete(p.loc, b.Rows[l.idx].ID)
	p.rowBytes -= b.Rows[l.idx].ResidentBytes()
	p.members--
	b.SwapRemove(int(l.idx))
	if int(l.idx) < b.Len() {
		p.loc[b.Rows[l.idx].ID] = l
	}
}

// Rebalance re-cuts the resident population into k near-equal contiguous
// splits and returns how many members changed split or row. Round-robin
// inserts and swap-removes let splits drift unbalanced over a long mutation
// history; a balanced re-cut restores even map-task sizing for engine passes.
// The relative order of members is preserved (concatenation order of the old
// splits), so a member keeps its place exactly when its old and new split
// share an index and a start offset. The new blocks are the population's own
// storage, their columns and boxes built afresh (the boxes tight again), the
// id index is dropped for the next Apply to rebuild, and the round-robin
// insert cursor resets. Callers should
// bump the daemon epoch afterwards: the re-cut changes split boundaries, which
// changes per-split reservoir draws, so cached answers must not survive it.
func (p *Population) Rebalance(k int) int {
	if k < 1 {
		k = 1
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	total := p.members
	flat := make(dataset.Split, 0, total)
	for _, b := range p.blocks {
		flat = append(flat, b.Rows...)
	}
	if k > total && total > 0 {
		k = total
	}
	splits := make([]dataset.Split, k)
	base, rem := 0, 0
	if total > 0 {
		base, rem = total/k, total%k
	}
	stayed := 0
	off, oldOff := 0, 0
	for si := range splits {
		size := base
		if si < rem {
			size++
		}
		splits[si] = flat[off : off+size : off+size]
		if si < len(p.blocks) {
			if oldOff == off {
				stayed += min(size, p.blocks[si].Len())
			}
			oldOff += p.blocks[si].Len()
		}
		off += size
	}
	p.setSplits(splits, true)
	p.loc = nil
	p.next = 0
	return total - stayed
}

// Register lowers the query and builds its per-stratum reservoirs with one
// scan of the resident splits (the only O(population) step of a standing
// query's lifetime outside repairs). A key already registered is returned
// as-is when the seed matches, and rejected otherwise — subscribers to the
// same canonical query share one state.
func (p *Population) Register(key string, q *query.SSD, seed int64) (*Standing, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if st, ok := p.queries[key]; ok {
		if st.Seed != seed {
			return nil, fmt.Errorf("live: query %q already registered with seed %d", key, st.Seed)
		}
		return st, nil
	}
	st, err := newStanding(key, q, seed, p.schema)
	if err != nil {
		return nil, err
	}
	p.classify(st.cls, func(rows []dataset.Tuple, classes []int32) {
		for i, k := range classes {
			if k >= 0 {
				s := st.strata[k]
				s.members++
				s.res.Add(rows[i])
			}
		}
	})
	p.queries[key] = st
	return st, nil
}

// Unregister drops a standing query. It reports whether the key existed.
func (p *Population) Unregister(key string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.queries[key]
	delete(p.queries, key)
	return ok
}

// QueryVersion returns the standing query's version — bumped once per
// mutation that touched any of its strata — or 0 for an unknown key.
func (p *Population) QueryVersion(key string) int64 {
	p.mu.RLock()
	defer p.mu.RUnlock()
	if st, ok := p.queries[key]; ok {
		return st.version
	}
	return 0
}

// StratumMeta describes one stratum of a snapshot.
type StratumMeta struct {
	// Members is the live |σ_k(R)|.
	Members int `json:"members"`
	// SampleSize is the current reservoir size — min(f_k, members) minus any
	// holes awaiting compensation or repair.
	SampleSize int `json:"sample_size"`
	// Staleness is d1+d2, the uncompensated deletions.
	Staleness int `json:"staleness"`
	// Version counts mutations that touched this stratum (its cache epoch).
	Version int64 `json:"version"`
	// Repairs counts rebuilds of this stratum's reservoir.
	Repairs int64 `json:"repairs"`
}

// Snapshot returns the standing query's warm answer — a copy, never aliased
// by later mutations — with per-stratum metadata and the query version.
func (p *Population) Snapshot(key string) (*query.Answer, []StratumMeta, int64, bool) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	st, ok := p.queries[key]
	if !ok {
		return nil, nil, 0, false
	}
	ans := query.NewAnswer(len(st.strata))
	metas := make([]StratumMeta, len(st.strata))
	for k, s := range st.strata {
		ans.Strata[k] = append([]dataset.Tuple(nil), s.res.Sample()...)
		metas[k] = StratumMeta{
			Members:    s.members,
			SampleSize: len(ans.Strata[k]),
			Staleness:  s.d1 + s.d2,
			Version:    s.version,
			Repairs:    s.repairs,
		}
	}
	return ans, metas, st.version, true
}
