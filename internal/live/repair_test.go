package live

import (
	"encoding/json"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/query"
	"repro/internal/sampling"
)

// oracleRepair is the materializing repair the block walk replaced: classify
// every resident row with Classify, copy the stratum's members into a slice
// and feed it to AddSlice.
func oracleRepair(st *Standing, p *Population, k int) {
	s := st.strata[k]
	var members []dataset.Tuple
	for si := range p.splits {
		split := p.splits[si]
		for i := range split {
			if st.cls.Classify(&split[i]) == k {
				members = append(members, split[i])
			}
		}
	}
	fresh := sampling.NewReservoir[dataset.Tuple](st.Query.Strata[k].Freq, st.rng)
	fresh.AddSlice(members)
	s.res = fresh
	s.members = len(members)
	s.d1, s.d2 = 0, 0
	s.repairs++
	st.bump(s)
}

// oracleRegister is the row-wise registration scan the block walk replaced.
func oracleRegister(p *Population, key string, q *query.SSD, seed int64) (*Standing, error) {
	st, err := newStanding(key, q, seed, p.schema)
	if err != nil {
		return nil, err
	}
	for si := range p.splits {
		split := p.splits[si]
		for i := range split {
			if k := st.cls.Classify(&split[i]); k >= 0 {
				s := st.strata[k]
				s.members++
				s.res.Add(split[i])
			}
		}
	}
	return st, nil
}

// oracle maintains standing queries the way the package did before repairs
// and registration walked the mirror. Its population holds no queries and
// never repairs: the oracle applies one mutation at a time to it, so its rows
// are, after each, what the population under test scanned at that point of a
// batch, and runs the standing queries' insert/remove/update itself with
// oracleRepair where remove would repair.
type oracle struct {
	pop     *Population
	bound   int
	queries map[string]*Standing
}

func (o *oracle) apply(m Mutation) {
	var old dataset.Tuple
	o.pop.index()
	if m.Op != OpInsert {
		id := m.ID
		if m.Op == OpUpdate {
			id = m.Tuple.ID
		}
		if l, ok := o.pop.loc[id]; ok {
			old = o.pop.splits[l.split][l.idx]
		}
	}
	if res := o.pop.Apply([]Mutation{m}); res.Applied == 0 {
		return
	}
	for _, st := range o.queries {
		switch m.Op {
		case OpInsert:
			st.insert(m.Tuple)
		case OpDelete:
			o.remove(st, old)
		case OpUpdate:
			kOld, kNew := st.cls.Classify(&old), st.cls.Classify(&m.Tuple)
			if kOld == kNew {
				st.update(o.pop, old, m.Tuple)
				continue
			}
			if kOld >= 0 {
				o.remove(st, old)
			}
			if kNew >= 0 {
				st.insert(m.Tuple)
			}
		}
	}
}

// remove is Standing.remove with the repair it triggers done by oracleRepair.
func (o *oracle) remove(st *Standing, old dataset.Tuple) {
	st.remove(o.pop, old) // o.pop's bound is never reached
	if k := st.cls.Classify(&old); k >= 0 {
		if s := st.strata[k]; s.d1+s.d2 >= o.bound {
			oracleRepair(st, o.pop, k)
		}
	}
}

// repairSchema has a field whose domain does not fit int32: a query testing
// it is classified row by row.
func repairSchema() *dataset.Schema {
	return dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 1000},
		dataset.Field{Name: "big", Min: 0, Max: 1 << 40},
	)
}

func repairTuple(rng *rand.Rand, id int64) dataset.Tuple {
	return dataset.Tuple{ID: id, Attrs: []int64{rng.Int63n(2), rng.Int63n(1001), rng.Int63n(1<<40 + 1)}}
}

// TestRepairMatchesMaterializingOracle: through a seeded stream of insert,
// delete and update batches, with re-cuts, a small staleness bound and a
// query registered mid-stream, every standing query's snapshot equals, byte
// for byte, the one the materializing repair and the row-wise registration
// scan keep, and so do its members, d1, d2 and repairs — for queries the
// column mirror classifies and for queries whose classifier cannot read
// columns.
func TestRepairMatchesMaterializingOracle(t *testing.T) {
	ssd := func(spec string) *query.SSD {
		q, err := query.ParseSSD("Q", spec)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	columnar := []*query.SSD{
		ssd("gender = 1 : 5 ; gender = 0 : 7"),
		ssd("income < 250 : 4 ; income >= 250 and income < 500 and gender = 1 : 3 ; income >= 750 : 6 ; income >= 500 and income < 750 : 2"),
	}
	rowwise := []*query.SSD{
		ssd("big < 549755813888 : 6 ; big >= 549755813888 and gender = 1 : 4"),
		ssd("big < 100000000000 or income < 100 : 3 ; big >= 900000000000 : 5"),
	}
	for _, tc := range []struct {
		name    string
		queries []*query.SSD
	}{
		{"mirror", columnar},
		{"rowwise", rowwise},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const n, bound = 5000, 4
			rng := rand.New(rand.NewSource(41))
			rel := dataset.NewRelation(repairSchema())
			for id := int64(0); id < n; id++ {
				rel.MustAdd(repairTuple(rng, id))
			}
			newPop := func(cfg Config) *Population {
				// Each population gets its own cut, of splits longer than a
				// class block: an edit replaces an entry of the splits slice
				// it was handed.
				splits, err := dataset.Partition(rel, 2, dataset.Contiguous, nil)
				if err != nil {
					t.Fatal(err)
				}
				p, err := NewPopulation(rel.Schema(), splits, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			p := newPop(Config{StalenessBound: bound})
			o := &oracle{pop: newPop(Config{StalenessBound: 1 << 30}), bound: bound, queries: map[string]*Standing{}}
			register := func(key string, q *query.SSD, seed int64) {
				st, err := p.Register(key, q, seed)
				if err != nil {
					t.Fatal(err)
				}
				if rowAttrs := st.cls.Attrs() == nil; rowAttrs != (tc.name == "rowwise") {
					t.Fatalf("query %q: row-wise classifier %v in case %s", key, rowAttrs, tc.name)
				}
				if o.queries[key], err = oracleRegister(o.pop, key, q, seed); err != nil {
					t.Fatal(err)
				}
			}
			check := func(step int) {
				t.Helper()
				for key, want := range o.queries {
					got := p.queries[key]
					ans, _, _, _ := p.Snapshot(key)
					for k, s := range want.strata {
						g := got.strata[k]
						gotJSON, _ := json.Marshal(ans.Strata[k])
						wantJSON, _ := json.Marshal(s.res.Sample())
						if string(gotJSON) != string(wantJSON) {
							t.Fatalf("step %d: query %s stratum %d sample\n got  %s\n want %s", step, key, k, gotJSON, wantJSON)
						}
						if g.members != s.members || g.d1 != s.d1 || g.d2 != s.d2 || g.repairs != s.repairs {
							t.Fatalf("step %d: query %s stratum %d (members, d1, d2, repairs) = (%d, %d, %d, %d), oracle (%d, %d, %d, %d)",
								step, key, k, g.members, g.d1, g.d2, g.repairs, s.members, s.d1, s.d2, s.repairs)
						}
					}
				}
			}

			register("a", tc.queries[0], 1)
			check(-1)
			ids := make([]int64, n)
			for i := range ids {
				ids[i] = int64(i)
			}
			nextID := int64(n)
			for step := 0; step < 300; step++ {
				if step == 100 {
					register("b", tc.queries[1], 2)
				}
				if step%75 == 74 {
					k := 1 + rng.Intn(6)
					p.Rebalance(k)
					o.pop.Rebalance(k)
					continue
				}
				batch := make([]Mutation, 1+rng.Intn(12))
				for i := range batch {
					switch op := rng.Intn(10); {
					case op < 3 || len(ids) < n/2:
						batch[i] = Mutation{Op: OpInsert, Tuple: repairTuple(rng, nextID)}
						ids = append(ids, nextID)
						nextID++
					case op < 7:
						at := rng.Intn(len(ids))
						batch[i] = Mutation{Op: OpDelete, ID: ids[at]}
						ids[at] = ids[len(ids)-1]
						ids = ids[:len(ids)-1]
					case op < 9:
						batch[i] = Mutation{Op: OpUpdate, Tuple: repairTuple(rng, ids[rng.Intn(len(ids))])}
					default: // rejected: nobody has the id
						batch[i] = Mutation{Op: OpDelete, ID: -1}
					}
				}
				p.Apply(batch)
				for _, m := range batch {
					o.apply(m)
				}
				check(step)
			}
			t.Logf("%d repairs", p.repairs)
			if p.repairs < 20 {
				t.Errorf("%d repairs over the stream, want at least 20", p.repairs)
			}
			if p.members != o.pop.members {
				t.Errorf("%d members, the oracle's population %d", p.members, o.pop.members)
			}
		})
	}
}

// TestClassifyLeavesNoView: the block walk drops its views of the column
// mirror, so a re-cut does not leave the old mirror reachable from the scratch.
func TestClassifyLeavesNoView(t *testing.T) {
	p := newTestPop(t, 3000, 3, Config{})
	if _, err := p.Register("g", genderSSD(5, 7), 1); err != nil {
		t.Fatal(err)
	}
	blocks := 0
	p.classify(p.queries["g"].cls, func(rows []dataset.Tuple, classes []int32) {
		if len(rows) != len(classes) || len(rows) > classBlock {
			t.Fatalf("block of %d rows with %d classes", len(rows), len(classes))
		}
		blocks++
	})
	if blocks != 3 {
		t.Errorf("%d blocks over three 1000-row splits, want 3", blocks)
	}
	for j, col := range p.view {
		if col != nil {
			t.Errorf("scratch still views column %d after the walk", j)
		}
	}
}
