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

// checkMirror fails unless the population's column mirrors equal its rows
// cell for cell, its size columns hold each row's wire size, every row lies
// inside its split's bounding box, a pass handed (splits, columns, sizes)
// answers and counts shuffle bytes exactly as a pass over the splits alone,
// the resident-byte gauges match a recount and, once it exists, the id index
// points at every member's split and row. It holds the pass's read lock
// throughout, like the daemon's executor.
func checkMirror(t *testing.T, p *Population, queries []*query.SSD, seed int64) {
	splits, derived, release := p.AcquireSplits()
	defer release()
	cols := derived.Columns
	if len(cols) != len(splits) || len(derived.Sizes) != len(splits) || len(derived.Bounds) != len(splits) {
		t.Errorf("%d column mirrors, %d size columns and %d boxes for %d splits", len(cols), len(derived.Sizes), len(derived.Bounds), len(splits))
		return
	}
	var rowBytes, members int64
	for si, split := range splits {
		if got, want := cols[si], dataset.ColumnsOf(split, p.schema.NumFields()); !reflect.DeepEqual(got, want) {
			t.Errorf("split %d: mirror differs from its rows\n mirror %v\n rows   %v", si, got, want)
			return
		}
		if len(derived.Sizes[si]) != len(split) {
			t.Errorf("split %d: %d wire sizes for %d rows", si, len(derived.Sizes[si]), len(split))
			return
		}
		for i := range split {
			if got, want := derived.Sizes[si][i], split[i].ByteSize(); int(got) != want {
				t.Errorf("split %d: member %d's size column reads %d, its ByteSize is %d", si, split[i].ID, got, want)
				return
			}
			box := derived.Bounds[si]
			for j, v := range split[i].Attrs {
				if box == nil || v < box[j].Lo || v > box[j].Hi {
					t.Errorf("split %d: member %d has %s = %d outside the split's box %v", si, split[i].ID, p.schema.Field(j).Name, v, box)
					return
				}
			}
		}
		rowBytes += split.ResidentBytes()
		members += int64(len(split))
	}
	// The fields, not ResidentBytes: taking the read lock a second time
	// deadlocks behind a waiting writer.
	if p.rowBytes != rowBytes || int64(p.members) != members {
		t.Errorf("resident gauges: %d row bytes, %d members; recount %d, %d", p.rowBytes, p.members, rowBytes, members)
	}
	if p.loc != nil {
		if int64(len(p.loc)) != members {
			t.Errorf("the id index holds %d members, the splits %d", len(p.loc), members)
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
		return &mapreduce.Cluster{Slaves: 2, SlotsPerSlave: 1, Cost: mapreduce.ZeroCostModel()}
	}
	with, withMet, err := stratified.RunMQE(cluster(), queries, p.schema, splits, stratified.Options{Seed: seed, Columns: cols, Sizes: derived.Sizes})
	if err != nil {
		t.Error(err)
		return
	}
	without, withoutMet, err := stratified.RunMQE(cluster(), queries, p.schema, splits, stratified.Options{Seed: seed})
	if err != nil {
		t.Error(err)
		return
	}
	if !reflect.DeepEqual(with, without) {
		t.Errorf("pass over (splits, columns, sizes) differs from a pass over the splits:\n with    %v\n without %v", with, without)
	}
	if withMet.ShuffleBytes != withoutMet.ShuffleBytes || !reflect.DeepEqual(withMet.BucketBytes, withoutMet.BucketBytes) {
		t.Errorf("pass over (splits, columns, sizes) shuffles %d B, over the splits %d B", withMet.ShuffleBytes, withoutMet.ShuffleBytes)
	}
}

// locations reads every member's split and row off the splits.
func locations(p *Population) map[int64]tupleLoc {
	splits, _, release := p.AcquireSplits()
	defer release()
	at := make(map[int64]tupleLoc)
	for si, split := range splits {
		for i := range split {
			at[split[i].ID] = tupleLoc{int32(si), int32(i)}
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
