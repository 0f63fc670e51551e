package live

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

// checkMirror fails unless every block's column mirror equals its rows cell
// for cell and its size column holds each row's wire size (a fresh
// ResidentBlock of the rows), a pass over the blocks answers and counts
// shuffle bytes exactly as a pass over their rows alone, the resident-byte
// gauges match a recount and, once it exists, the id index points at every
// member's block and row. It holds the pass's read lock throughout, like the
// daemon's executor.
func checkMirror(t *testing.T, p *Population, queries []*query.SSD, seed int64) {
	blocks, release := p.Acquire()
	defer release()
	var rowBytes, members int64
	splits := make([]dataset.Split, len(blocks))
	for si, b := range blocks {
		if want := dataset.ResidentBlock(b.Rows, p.schema.NumFields()); !reflect.DeepEqual(b.Cols, want.Cols) || !reflect.DeepEqual(b.Sizes, want.Sizes) {
			t.Errorf("block %d: columns differ from its rows\n mirror %v sizes %v\n rows   %v sizes %v", si, b.Cols, b.Sizes, want.Cols, want.Sizes)
			return
		}
		splits[si] = b.Rows
		rowBytes += b.Rows.ResidentBytes()
		members += int64(b.Len())
	}
	// The fields, not ResidentBytes: taking the read lock a second time
	// deadlocks behind a waiting writer.
	if p.rowBytes != rowBytes || int64(p.members) != members {
		t.Errorf("resident gauges: %d row bytes, %d members; recount %d, %d", p.rowBytes, p.members, rowBytes, members)
	}
	if p.loc != nil {
		if int64(len(p.loc)) != members {
			t.Errorf("the id index holds %d members, the blocks %d", len(p.loc), members)
		}
		for si, split := range splits {
			for i := range split {
				if l, want := p.loc[split[i].ID], (tupleLoc{int32(si), int32(i)}); l != want {
					t.Errorf("the id index puts member %d at %v, it is at %v", split[i].ID, l, want)
					return
				}
			}
		}
	}
	cluster := func() *mapreduce.Cluster {
		return &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}
	}
	with, withMet, err := stratified.Pass(cluster(), queries, p.schema, blocks, stratified.Options{Seed: seed})
	if err != nil {
		t.Error(err)
		return
	}
	without, withoutMet, err := stratified.Pass(cluster(), queries, p.schema, dataset.Blocks(splits), stratified.Options{Seed: seed})
	if err != nil {
		t.Error(err)
		return
	}
	if !reflect.DeepEqual(with, without) {
		t.Errorf("pass over the resident blocks differs from a pass over their rows:\n with    %v\n without %v", with, without)
	}
	if withMet.ShuffleBytes != withoutMet.ShuffleBytes || !reflect.DeepEqual(withMet.BucketBytes, withoutMet.BucketBytes) {
		t.Errorf("pass over the resident blocks shuffles %d B, over their rows %d B", withMet.ShuffleBytes, withoutMet.ShuffleBytes)
	}
}

// locations reads every member's block and row off the blocks.
func locations(p *Population) map[int64]tupleLoc {
	blocks, release := p.Acquire()
	defer release()
	at := make(map[int64]tupleLoc)
	for si, b := range blocks {
		for i := range b.Rows {
			at[b.Rows[i].ID] = tupleLoc{int32(si), int32(i)}
		}
	}
	return at
}

// TestColumnsMirrorRows: through random insert/delete/update/Rebalance
// streams — with a standing query registered, so repairs run too — the column
// mirrors stay equal to the rows and the size columns to their wire sizes,
// neither changes an answer or a shuffle count, every box keeps containing
// its split's rows and Rebalance counts exactly the members it moves, while a
// concurrent reader takes passes the whole time (run under -race).
func TestColumnsMirrorRows(t *testing.T) {
	p := newTestPop(t, 600, 4, Config{StalenessBound: 4})
	if _, err := p.Register("g", genderSSD(5, 7), 1); err != nil {
		t.Fatal(err)
	}
	queries := []*query.SSD{
		genderSSD(6, 4),
		query.NewSSD("income",
			query.Stratum{Cond: predicate.MustParse("income < 400 and gender = 1"), Freq: 9},
			query.Stratum{Cond: predicate.MustParse("income >= 400"), Freq: 5}),
	}

	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for seed := int64(0); ; seed++ {
			select {
			case <-stop:
				return
			default:
				checkMirror(t, p, queries, seed)
			}
		}
	}()

	rng := rand.New(rand.NewSource(23))
	ids := make([]int64, 600)
	for i := range ids {
		ids[i] = int64(i)
	}
	nextID := int64(10000)
	for step := 0; step < 300 && !t.Failed(); step++ {
		if step%40 == 39 {
			was := locations(p)
			moved := p.Rebalance(1 + rng.Intn(6))
			want := 0
			for id, l := range locations(p) {
				if was[id] != l {
					want++
				}
			}
			if moved != want {
				t.Fatalf("step %d: Rebalance reports %d members moved, %d changed split or row", step, moved, want)
			}
			continue
		}
		batch := make([]Mutation, 1+rng.Intn(8))
		for i := range batch {
			switch op := rng.Intn(3); {
			case op == 0 || len(ids) < 50:
				batch[i] = Mutation{Op: OpInsert, Tuple: tup(nextID, rng.Int63n(2), rng.Int63n(1001))}
				ids = append(ids, nextID)
				nextID++
			case op == 1:
				at := rng.Intn(len(ids))
				batch[i] = Mutation{Op: OpDelete, ID: ids[at]}
				ids[at] = ids[len(ids)-1]
				ids = ids[:len(ids)-1]
			default:
				batch[i] = Mutation{Op: OpUpdate, Tuple: tup(ids[rng.Intn(len(ids))], rng.Int63n(2), rng.Int63n(1001))}
			}
		}
		if res := p.Apply(batch); len(res.Rejected) > 0 {
			t.Fatalf("step %d: rejected %v", step, res.Rejected)
		}
	}
	close(stop)
	reader.Wait()
	checkMirror(t, p, queries, 99)
	if rows, cols := p.ResidentBytes(); cols != 4*3*int64(len(ids)) || rows <= cols {
		t.Errorf("ResidentBytes = %d rows, %d columns for %d members of 2 attributes and a wire size", rows, cols, len(ids))
	}
}
