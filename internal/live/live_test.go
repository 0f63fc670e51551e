package live

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
)

func testSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
	)
}

// tup builds a member; gender 1 for even ids keeps strata easy to reason
// about in scripts that choose ids deliberately.
func tup(id int64, gender, income int64) dataset.Tuple {
	return dataset.Tuple{ID: id, Attrs: []int64{gender, income}}
}

func genderSSD(fMen, fWomen int) *query.SSD {
	return query.NewSSD("gender",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: fMen},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: fWomen},
	)
}

// newTestPop builds a live population of n members (ids 0..n-1, alternating
// gender) over k splits.
func newTestPop(t *testing.T, n, splits int, cfg Config) *Population {
	t.Helper()
	r := dataset.NewRelation(testSchema())
	for id := int64(0); id < int64(n); id++ {
		r.MustAdd(tup(id, (id+1)%2, id%1001))
	}
	sp, err := dataset.Partition(r, splits, dataset.RoundRobin, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPopulation(r.Schema(), sp, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestApplyMaintainsMembershipAndSamples(t *testing.T) {
	p := newTestPop(t, 100, 4, Config{})
	st, err := p.Register("g", genderSSD(5, 7), 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = st
	ans, metas, _, ok := p.Snapshot("g")
	if !ok {
		t.Fatal("registered query not found")
	}
	if metas[0].Members != 50 || metas[1].Members != 50 {
		t.Fatalf("initial members %+v, want 50/50", metas)
	}
	if len(ans.Strata[0]) != 5 || len(ans.Strata[1]) != 7 {
		t.Fatalf("initial samples %d/%d, want 5/7", len(ans.Strata[0]), len(ans.Strata[1]))
	}

	res := p.Apply([]Mutation{
		{Op: OpInsert, Tuple: tup(1000, 1, 3)},     // new man
		{Op: OpDelete, ID: 0},                      // delete a man
		{Op: OpUpdate, Tuple: tup(2, 0, 9)},        // migrate man -> woman
		{Op: OpUpdate, Tuple: tup(4, 1, 500)},      // same-stratum attribute change
		{Op: OpInsert, Tuple: tup(1001, 0, 1)},     // new woman
		{Op: OpDelete, ID: 999999},                 // unknown: rejected
		{Op: OpInsert, Tuple: tup(1000, 1, 3)},     // duplicate: rejected
		{Op: OpInsert, Tuple: tup(1002, 5, 99999)}, // domain violation: rejected
	})
	if res.Applied != 5 || res.Inserts != 2 || res.Deletes != 1 || res.Updates != 2 {
		t.Fatalf("applied %+v", res)
	}
	if len(res.Rejected) != 3 {
		t.Fatalf("rejections %+v, want 3", res.Rejected)
	}
	if res.Seq != 5 || p.Seq() != 5 {
		t.Fatalf("seq %d/%d, want 5", res.Seq, p.Seq())
	}
	if p.Len() != 101 {
		t.Fatalf("population %d, want 101", p.Len())
	}
	_, metas, _, _ = p.Snapshot("g")
	// Men: 50 +1 (insert) -1 (delete) -1 (migration out) = 49.
	// Women: 50 +1 (insert) +1 (migration in) = 52.
	if metas[0].Members != 49 || metas[1].Members != 52 {
		t.Fatalf("members after churn %+v, want 49/52", metas)
	}
	if p.Contains(0) {
		t.Fatal("deleted member still present")
	}
}

// TestInvariantSeenMinusMembers checks the random-pairing bookkeeping: for
// every stratum, reservoir stream count minus live membership equals the
// uncompensated deletions, across a random interleaved workload.
func TestInvariantSeenMinusMembers(t *testing.T) {
	p := newTestPop(t, 400, 4, Config{StalenessBound: 1 << 30}) // never repair
	if _, err := p.Register("g", genderSSD(10, 10), 3); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(99))
	nextID := int64(10_000)
	alive := make([]int64, 0, 400)
	for id := int64(0); id < 400; id++ {
		alive = append(alive, id)
	}
	for step := 0; step < 2000; step++ {
		var m Mutation
		switch r := rng.Intn(10); {
		case r < 4: // insert
			m = Mutation{Op: OpInsert, Tuple: tup(nextID, rng.Int63n(2), rng.Int63n(1001))}
			alive = append(alive, nextID)
			nextID++
		case r < 8: // delete
			i := rng.Intn(len(alive))
			m = Mutation{Op: OpDelete, ID: alive[i]}
			alive[i] = alive[len(alive)-1]
			alive = alive[:len(alive)-1]
		default: // update (possibly migrating)
			i := rng.Intn(len(alive))
			m = Mutation{Op: OpUpdate, Tuple: tup(alive[i], rng.Int63n(2), rng.Int63n(1001))}
		}
		if res := p.Apply([]Mutation{m}); len(res.Rejected) > 0 {
			t.Fatalf("step %d rejected: %+v", step, res.Rejected)
		}
		st := p.queries["g"]
		for k, s := range st.strata {
			if got, want := s.res.Seen()-int64(s.members), int64(s.d1+s.d2); got != want {
				t.Fatalf("step %d stratum %d: seen-members = %d, d1+d2 = %d", step, k, got, want)
			}
			if len(s.res.Sample()) > s.members {
				t.Fatalf("step %d stratum %d: sample %d exceeds members %d", step, k, len(s.res.Sample()), s.members)
			}
		}
	}
}

func TestStalenessBoundTriggersRepair(t *testing.T) {
	const bound = 8
	p := newTestPop(t, 300, 4, Config{StalenessBound: bound})
	if _, err := p.Register("g", genderSSD(20, 20), 1); err != nil {
		t.Fatal(err)
	}
	// Delete men only; every deletion is uncompensated (no inserts), so the
	// men stratum must repair every `bound` deletions.
	var muts []Mutation
	for id := int64(0); id < 200; id += 2 {
		muts = append(muts, Mutation{Op: OpDelete, ID: id})
	}
	res := p.Apply(muts)
	if res.Applied != 100 {
		t.Fatalf("applied %d, want 100", res.Applied)
	}
	s := p.Stats()
	if s.Repairs != 100/bound {
		t.Fatalf("repairs %d, want %d", s.Repairs, 100/bound)
	}
	if s.MaxStaleness > bound {
		t.Fatalf("staleness %d exceeded bound %d", s.MaxStaleness, bound)
	}
	if s.RepairScanned == 0 {
		t.Fatal("repair scanned no tuples")
	}
	ans, metas, _, _ := p.Snapshot("g")
	// 50 men survive (ids 200..298 even); reservoir refills to f=20 on
	// repair, and staleness since the last repair is at most bound-1 holes.
	if metas[0].Members != 50 {
		t.Fatalf("men members %d, want 50", metas[0].Members)
	}
	if len(ans.Strata[0]) < 20-(bound-1) {
		t.Fatalf("men sample %d fell below the bound's deficit floor", len(ans.Strata[0]))
	}
	for _, mt := range ans.Strata[0] {
		if !p.Contains(mt.ID) {
			t.Fatalf("sample holds deleted member %d", mt.ID)
		}
	}
}

func TestSnapshotDetachedFromMutations(t *testing.T) {
	p := newTestPop(t, 60, 2, Config{})
	if _, err := p.Register("g", genderSSD(30, 0), 1); err != nil {
		t.Fatal(err)
	}
	ans, _, ver, _ := p.Snapshot("g")
	before := make([]int64, len(ans.Strata[0]))
	for i, mt := range ans.Strata[0] {
		before[i] = mt.ID
	}
	var muts []Mutation
	for id := int64(0); id < 60; id += 2 {
		muts = append(muts, Mutation{Op: OpDelete, ID: id})
	}
	p.Apply(muts)
	for i, mt := range ans.Strata[0] {
		if mt.ID != before[i] {
			t.Fatal("snapshot aliased by later mutations")
		}
	}
	if _, _, ver2, _ := p.Snapshot("g"); ver2 <= ver {
		t.Fatalf("version did not advance: %d -> %d", ver, ver2)
	}
}

func TestRegisterSharingAndSeedMismatch(t *testing.T) {
	p := newTestPop(t, 50, 2, Config{})
	a, err := p.Register("k", genderSSD(3, 3), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Register("k", genderSSD(3, 3), 7)
	if err != nil || a != b {
		t.Fatalf("re-register did not share state: %v", err)
	}
	if _, err := p.Register("k", genderSSD(3, 3), 8); err == nil {
		t.Fatal("seed mismatch accepted")
	}
	if !p.Unregister("k") || p.Unregister("k") {
		t.Fatal("unregister bookkeeping wrong")
	}
	if _, err := p.Register("bad", query.NewSSD("bad",
		query.Stratum{Cond: predicate.MustParse("zzz = 1"), Freq: 1}), 1); err == nil ||
		!strings.Contains(err.Error(), "zzz") {
		t.Fatalf("uncompilable query accepted: %v", err)
	}
}

// TestAcquireSplitsConsistency checks a pass's view: the union of the
// acquired blocks' rows is exactly the live membership.
func TestAcquireSplitsConsistency(t *testing.T) {
	p := newTestPop(t, 80, 3, Config{})
	p.Apply([]Mutation{
		{Op: OpDelete, ID: 10}, {Op: OpDelete, ID: 11},
		{Op: OpInsert, Tuple: tup(500, 1, 1)},
	})
	blocks, _, release := p.Acquire()
	defer release()
	seen := map[int64]bool{}
	total := 0
	for _, b := range blocks {
		sp := b.Rows
		total += len(sp)
		for i := range sp {
			if seen[sp[i].ID] {
				t.Fatalf("duplicate id %d across splits", sp[i].ID)
			}
			seen[sp[i].ID] = true
		}
	}
	if total != 79 || !seen[500] || seen[10] || seen[11] {
		t.Fatalf("split union wrong: total %d, 500=%v 10=%v", total, seen[500], seen[10])
	}
}

// TestNewPopulationRejectsDuplicateIDs: an ID held twice, in two splits or in
// one, is refused with the ID named, although the population keeps no index
// until its first mutation; unique IDs are taken in any order.
func TestNewPopulationRejectsDuplicateIDs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		splits []dataset.Split
		want   string
	}{
		{"across splits", []dataset.Split{{tup(1, 0, 0), tup(2, 0, 0)}, {tup(3, 0, 0), tup(2, 1, 1)}}, "duplicate tuple id 2"},
		{"within a split", []dataset.Split{{tup(4, 0, 0)}, {tup(5, 0, 0), tup(6, 0, 0), tup(5, 1, 1)}}, "duplicate tuple id 5"},
	} {
		if _, err := NewPopulation(testSchema(), tc.splits, Config{}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
	// Unique IDs are taken whether they ascend across the splits (the one-pass
	// check, an empty split between) or not (the sorted fallback).
	for name, splits := range map[string][]dataset.Split{
		"ascending":     {{tup(1, 0, 0), tup(2, 0, 0)}, {}, {tup(3, 0, 0), tup(7, 1, 1)}},
		"not ascending": {{tup(7, 0, 0), tup(1, 0, 0)}, {tup(3, 0, 0), tup(2, 1, 1)}},
	} {
		p, err := NewPopulation(testSchema(), splits, Config{})
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if p.Len() != 4 {
			t.Errorf("%s: Len %d, want 4", name, p.Len())
		}
	}
}

// TestOnlyAMutationBuildsTheIndex: everything a daemon that never mutates
// does — passes, standing queries, stats, a re-cut — leaves the id index
// unbuilt, and Len and the population stat count the members without it.
// The first Apply builds it.
func TestOnlyAMutationBuildsTheIndex(t *testing.T) {
	p := newTestPop(t, 100, 4, Config{})
	if _, err := p.Register("g", genderSSD(5, 7), 1); err != nil {
		t.Fatal(err)
	}
	_, _, release := p.Acquire()
	release()
	p.Snapshot("g")
	p.QueryVersion("g")
	p.ResidentBytes()
	p.Splits()
	p.Rebalance(3)
	if p.Indexed() {
		t.Fatal("the id index was built before any mutation")
	}
	if n, s := p.Len(), p.Stats().Population; n != 100 || s != 100 {
		t.Fatalf("before the first mutation: Len %d, population stat %d, want 100", n, s)
	}
	p.Apply([]Mutation{{Op: OpDelete, ID: 0}, {Op: OpInsert, Tuple: tup(500, 1, 1)}, {Op: OpDelete, ID: 1}})
	if !p.Indexed() {
		t.Fatal("the first mutation did not build the id index")
	}
	if n, s := p.Len(), p.Stats().Population; n != 99 || s != 99 {
		t.Fatalf("after the first mutation: Len %d, population stat %d, want 99", n, s)
	}
	checkMirror(t, p, []*query.SSD{genderSSD(3, 3)}, 1)
}

// TestMutationsLeaveTheRelation: contiguous splits are windows onto the
// relation's own rows, so the population copies each before its first edit.
// Inserts, updates and deletes in every split, a re-cut and more edits after
// it leave the relation exactly as it was, while the population's rows,
// mirrors and index follow every edit.
func TestMutationsLeaveTheRelation(t *testing.T) {
	r := dataset.NewRelation(testSchema())
	for id := int64(0); id < 400; id++ {
		r.MustAdd(tup(id, (id+1)%2, id%1001))
	}
	before := make([]dataset.Tuple, r.Len())
	for i, tp := range r.Tuples() {
		before[i] = tp.Clone()
	}
	splits, err := dataset.Partition(r, 4, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPopulation(r.Schema(), splits, Config{StalenessBound: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Register("g", genderSSD(5, 7), 1); err != nil {
		t.Fatal(err)
	}
	queries := []*query.SSD{genderSSD(6, 4)}
	// Split si holds ids 100si..100si+99; the inserts go round-robin, one to
	// each split.
	var muts []Mutation
	for si := int64(0); si < 4; si++ {
		muts = append(muts,
			Mutation{Op: OpUpdate, Tuple: tup(100*si+1, 0, 999)},
			Mutation{Op: OpDelete, ID: 100*si + 2},
			Mutation{Op: OpDelete, ID: 100*si + 99},
			Mutation{Op: OpInsert, Tuple: tup(1000+si, 1, 5)})
	}
	if res := p.Apply(muts); len(res.Rejected) > 0 {
		t.Fatalf("rejected %v", res.Rejected)
	}
	checkMirror(t, p, queries, 1)
	p.Rebalance(3)
	checkMirror(t, p, queries, 2)
	if res := p.Apply([]Mutation{
		{Op: OpUpdate, Tuple: tup(150, 1, 0)},
		{Op: OpDelete, ID: 250},
		{Op: OpInsert, Tuple: tup(2000, 0, 7)},
	}); len(res.Rejected) > 0 {
		t.Fatalf("rejected %v", res.Rejected)
	}
	checkMirror(t, p, queries, 3)
	if p.Len() != 400-8+4-1+1 {
		t.Errorf("population %d, want %d", p.Len(), 400-8+4-1+1)
	}
	if !reflect.DeepEqual(r.Tuples(), before) {
		t.Error("mutating the population changed the relation its splits were cut from")
	}
}
