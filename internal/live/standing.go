package live

import (
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
)

// Standing is one registered SSD query: per-stratum Algorithm L reservoirs
// plus the random-pairing bookkeeping that keeps them uniform under churn.
// All state is guarded by the owning Population's lock.
type Standing struct {
	Key   string
	Query *query.SSD
	Seed  int64

	cls    *predicate.Classifier
	rng    *rand.Rand
	strata []*stratumState
	// version counts mutations that touched any stratum of this query; the
	// serve layer uses it as the push trigger and the snapshot cache epoch.
	version int64
}

// stratumState is one stratum's incremental sampler.
type stratumState struct {
	res     *sampling.Reservoir[dataset.Tuple]
	members int // live |σ_k(R)|
	// Random-pairing counters: uncompensated deletions that were in the
	// sample (d1 — these are holes) and that were not (d2). The reservoir
	// invariant is res.Seen() − members == d1 + d2.
	d1, d2  int
	version int64
	repairs int64
}

// newStanding lowers the query to its cell grid, the classifier every pass
// uses too, and allocates empty reservoirs. The caller (Population.Register)
// fills them with the registration scan.
func newStanding(key string, q *query.SSD, seed int64, schema *dataset.Schema) (*Standing, error) {
	cls, err := q.Classifier(schema)
	if err != nil {
		return nil, err
	}
	st := &Standing{
		Key: key, Query: q, Seed: seed,
		cls:    cls,
		rng:    rand.New(rand.NewSource(seed)),
		strata: make([]*stratumState, len(q.Strata)),
	}
	for k, sq := range q.Strata {
		st.strata[k] = &stratumState{res: sampling.NewReservoir[dataset.Tuple](sq.Freq, st.rng)}
	}
	return st, nil
}

// insert offers a newly inserted member. When uncompensated deletions exist,
// the insert pairs against one of them (random pairing: into the sample with
// probability d1/(d1+d2), bypassing the stream count); otherwise it takes a
// standard Algorithm L step — O(1) expected, one counter decrement on the
// skip path.
func (st *Standing) insert(t dataset.Tuple) {
	k := st.cls.Classify(&t)
	if k < 0 {
		return
	}
	s := st.strata[k]
	s.members++
	if d := s.d1 + s.d2; d > 0 {
		if st.rng.Intn(d) < s.d1 {
			s.res.Readmit(t)
			s.d1--
		} else {
			s.d2--
		}
	} else {
		s.res.Add(t)
	}
	st.bump(s)
}

// remove handles the deletion of a member: forget it from the reservoir when
// sampled, count the deletion as uncompensated either way, and repair the
// stratum when staleness reaches the population's bound.
func (st *Standing) remove(p *Population, old dataset.Tuple) {
	k := st.cls.Classify(&old)
	if k < 0 {
		return
	}
	s := st.strata[k]
	s.members--
	if s.res.Forget(func(t dataset.Tuple) bool { return t.ID == old.ID }) {
		s.d1++
	} else {
		s.d2++
	}
	st.bump(s)
	if staleness := int64(s.d1 + s.d2); staleness > p.maxStaleness {
		p.maxStaleness = staleness
	}
	if s.d1+s.d2 >= p.bound {
		st.repair(p, k)
	}
}

// update handles an attribute change. Same stratum: refresh the payload in
// place (the member's identity, and hence the sample's distribution, is
// unchanged). Different stratum: delete from the old, insert into the new —
// stratum migration.
func (st *Standing) update(p *Population, old, new dataset.Tuple) {
	kOld := st.cls.Classify(&old)
	kNew := st.cls.Classify(&new)
	if kOld == kNew {
		if kOld < 0 {
			return
		}
		s := st.strata[kOld]
		s.res.Replace(func(t dataset.Tuple) bool { return t.ID == new.ID }, new)
		st.bump(s)
		return
	}
	if kOld >= 0 {
		st.remove(p, old)
	}
	if kNew >= 0 {
		st.insert(new)
	}
}

// bump advances the stratum's and the query's versions.
func (st *Standing) bump(s *stratumState) {
	s.version++
	st.version++
}

// repair rebuilds stratum k's reservoir from the resident splits: one
// classifying scan of the population, restricted to this query's predicate,
// instead of a full MapReduce pass. The members stream into the fresh
// reservoir in split and row order, and only those it accepts are copied:
// Skip(1) before Add is AddSlice's own contract, so the draws are those of
// AddSlice over a slice of the members, which the scan never builds. Counters
// reset — the rebuilt reservoir is exact for the current membership.
func (st *Standing) repair(p *Population, k int) {
	start := time.Now()
	s := st.strata[k]
	fresh := sampling.NewReservoir[dataset.Tuple](st.Query.Strata[k].Freq, st.rng)
	members := 0
	p.classify(st.cls, func(rows []dataset.Tuple, classes []int32) {
		for i, c := range classes {
			if int(c) != k {
				continue
			}
			members++
			if fresh.Skip(1) == 0 {
				fresh.Add(rows[i])
			}
		}
	})
	s.res = fresh
	s.members = members
	s.d1, s.d2 = 0, 0
	s.repairs++
	st.bump(s)
	p.repairs++
	p.repairScanned += int64(p.members)
	p.repairNanos.Observe(time.Since(start).Nanoseconds())
}
