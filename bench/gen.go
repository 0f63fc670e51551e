package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Everything the program under test sees is generated here from -seed: the
// query templates, the per-client request order, the mutation stream and the
// arrival schedule. The same seed gives byte-identical sequences.

// template is one generated SSD query with what the checker needs to judge an
// answer to it.
type template struct {
	Text  string
	Q     *query.SSD
	preds []predicate.Pred
	// fields is the schema's attribute count.
	fields int
	// Sizes is the exact |stratum| in the generated population.
	Sizes []int
}

// templateSet is the queries of one workload run, by role.
type templateSet struct {
	Adhoc    []*template // 4 narrow + 4 wide, sampled nocache
	Standing []*template // live_mixed_1e5: subscribed at set-up, read warm
	Primed   []*template // lone_open_1e5: cached at set-up, read as hits
}

func (s *templateSet) all() []*template {
	out := append([]*template(nil), s.Adhoc...)
	out = append(out, s.Standing...)
	return append(out, s.Primed...)
}

// wideStratumFreq × 4 strata = 400, the paper's §6 sample size.
const wideStratumFreq = 100

// thresholdSource draws stratum thresholds near the middle of an attribute's
// distribution, so every stratum is large and the cost of a pass does not
// depend on the seed.
type thresholdSource struct {
	schema *dataset.Schema
	sorted [][]int64 // per attribute: a sorted sample of its values
	rng    *rand.Rand
}

func newThresholdSource(pop *dataset.Relation, rng *rand.Rand) *thresholdSource {
	schema := pop.Schema()
	const sample = 20000
	stride := pop.Len()/sample + 1
	ts := &thresholdSource{schema: schema, rng: rng, sorted: make([][]int64, schema.NumFields())}
	tuples := pop.Tuples()
	for a := range ts.sorted {
		vals := make([]int64, 0, sample)
		for i := 0; i < len(tuples); i += stride {
			vals = append(vals, tuples[i].Attrs[a])
		}
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		ts.sorted[a] = vals
	}
	return ts
}

// cut picks an attribute and a threshold t with both "a < t" and "a >= t"
// holding a fair share of the population.
func (ts *thresholdSource) cut(exclude int) (attr int, t int64) {
	for {
		attr = ts.rng.Intn(ts.schema.NumFields())
		q := 0.35 + 0.30*ts.rng.Float64()
		if attr == exclude {
			continue
		}
		vals := ts.sorted[attr]
		t = vals[int(q*float64(len(vals)-1))] + 1
		below := sort.Search(len(vals), func(i int) bool { return vals[i] >= t })
		if share := float64(below) / float64(len(vals)); share >= 0.15 && share <= 0.85 {
			return attr, t
		}
	}
}

func (ts *thresholdSource) narrow() string {
	a, t := ts.cut(-1)
	name := ts.schema.Field(a).Name
	f1, f2 := 3+ts.rng.Intn(8), 3+ts.rng.Intn(8)
	return fmt.Sprintf("%s >= %d : %d ; %s < %d : %d", name, t, f1, name, t, f2)
}

func (ts *thresholdSource) wide() string {
	a, ta := ts.cut(-1)
	b, tb := ts.cut(a)
	an, bn := ts.schema.Field(a).Name, ts.schema.Field(b).Name
	f := wideStratumFreq
	return fmt.Sprintf("%s < %d and %s < %d : %d ; %s < %d and %s >= %d : %d ; %s >= %d and %s < %d : %d ; %s >= %d and %s >= %d : %d",
		an, ta, bn, tb, f, an, ta, bn, tb, f, an, ta, bn, tb, f, an, ta, bn, tb, f)
}

// makeTemplates generates the run's queries. Texts are distinct, so no two
// roles ever share a cache entry or a standing registration.
func makeTemplates(pop *dataset.Relation, seed int64, k kind) (*templateSet, error) {
	ts := newThresholdSource(pop, rand.New(rand.NewSource(seed*7919+17)))
	seen := map[string]bool{}
	var firstErr error
	build := func(gen func() string) *template {
		for {
			text := gen()
			if seen[text] {
				continue
			}
			seen[text] = true
			t, err := newTemplate(text, pop.Schema())
			if err != nil && firstErr == nil {
				firstErr = err
			}
			return t
		}
	}
	set := &templateSet{}
	for i := 0; i < 4; i++ {
		set.Adhoc = append(set.Adhoc, build(ts.narrow))
	}
	for i := 0; i < 4; i++ {
		set.Adhoc = append(set.Adhoc, build(ts.wide))
	}
	switch k {
	case kindLive:
		set.Standing = append(set.Standing, build(ts.narrow), build(ts.narrow), build(ts.wide), build(ts.wide))
	case kindLone:
		// One shape, so the cached class has one latency mode.
		for i := 0; i < primedQueries; i++ {
			set.Primed = append(set.Primed, build(ts.narrow))
		}
	}
	if firstErr != nil {
		return nil, firstErr
	}
	countStrata(pop, set.all())
	return set, nil
}

func newTemplate(text string, schema *dataset.Schema) (*template, error) {
	q, err := query.ParseSSD("Q", text)
	if err != nil {
		return nil, fmt.Errorf("template %q: %w", text, err)
	}
	if err := q.Validate(schema); err != nil {
		return nil, fmt.Errorf("template %q: %w", text, err)
	}
	preds, err := q.Compile(schema)
	if err != nil {
		return nil, fmt.Errorf("template %q: %w", text, err)
	}
	return &template{Text: text, Q: q, preds: preds, fields: schema.NumFields(), Sizes: make([]int, len(preds))}, nil
}

// countStrata scans the population once for every template's exact
// per-stratum sizes.
func countStrata(pop *dataset.Relation, tpls []*template) {
	tuples := pop.Tuples()
	for i := range tuples {
		for _, t := range tpls {
			if k := query.MatchStratum(t.preds, &tuples[i]); k >= 0 {
				t.Sizes[k]++
			}
		}
	}
}

// sampleBody is the POST /v1/sample body for a template.
func sampleBody(text string, seed int64, nocache bool) []byte {
	req := map[string]any{"query": text, "seed": seed}
	if nocache {
		req["nocache"] = true
	}
	body, _ := json.Marshal(req) // a map of strings, ints and bools always marshals
	return body
}

// subscribeBody registers a standing query that never pushes: the workload
// measures the warm read path, not delivery.
func subscribeBody(text string, seed int64) []byte {
	body, _ := json.Marshal(map[string]any{"query": text, "seed": seed, "every_mutations": int64(1) << 40})
	return body
}

// pickSequence is a seeded cyclic order of indexes below n: which template a
// client sends as its i-th request.
type pickSequence []uint8

func newPickSequence(seed int64, stream int, n int) pickSequence {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)*101 + 5))
	seq := make(pickSequence, 4096)
	for i := range seq {
		seq[i] = uint8(rng.Intn(n))
	}
	return seq
}

func (s pickSequence) at(i int) int { return int(s[i%len(s)]) }

// newMixSequence is a pick sequence with an exact mix: it is made of seeded
// shuffles of one cycle in which index i occurs weights[i] times, so every
// stretch of a run holds the same share of every index, whatever the seed.
func newMixSequence(seed int64, stream int, weights []int) pickSequence {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(stream)*101 + 5))
	var cycle []uint8
	for i, w := range weights {
		for ; w > 0; w-- {
			cycle = append(cycle, uint8(i))
		}
	}
	var seq pickSequence
	for len(seq)+len(cycle) <= 4096 {
		rng.Shuffle(len(cycle), func(i, j int) { cycle[i], cycle[j] = cycle[j], cycle[i] })
		seq = append(seq, cycle...)
	}
	return seq
}

// loneMix is how often lone_open_1e5 sends each ad-hoc template: one narrow
// query to three wide ones. A lone narrow pass takes half as long as a lone
// wide one, so latency has two modes; with the two shapes in equal and randomly
// drawn shares the median sat between the modes and jumped from one to the
// other with the seed (6.3 to 9.1 ms). At 1:3 in exact shares the median is the
// wide mode's 33rd percentile on every seed.
var loneMix = []int{1, 1, 1, 1, 3, 3, 3, 3}

// mutation is one op of a /v1/mutate batch.
type mutation struct {
	Op    string  `json:"op"`
	ID    int64   `json:"id"`
	Attrs []int64 `json:"attrs,omitempty"`
}

// mutationBatch builds the i-th /v1/mutate batch: fresh inserts (ids unique to
// the batch), updates of original members, then deletes of half the fresh
// inserts — applied in order it is rejection-free and the population stays
// near its starting size. This is `strata loadgen -mutate`'s batch shape.
func mutationBatch(seed int64, i int, popN int, schema *dataset.Schema) []mutation {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(i)*7 + 3))
	attrs := func() []int64 {
		a := make([]int64, schema.NumFields())
		for f := range a {
			fld := schema.Field(f)
			a[f] = fld.Min + rng.Int63n(fld.Width())
		}
		return a
	}
	const size = mutationBatchOps
	base := int64(1)<<40 + int64(i)*size
	muts := make([]mutation, 0, size)
	inserts := (size + 1) / 2
	for j := 0; j < inserts; j++ {
		muts = append(muts, mutation{Op: "insert", ID: base + int64(j), Attrs: attrs()})
	}
	for len(muts) < size-inserts/2 {
		muts = append(muts, mutation{Op: "update", ID: rng.Int63n(int64(popN)), Attrs: attrs()})
	}
	for j := 0; j < inserts/2; j++ {
		muts = append(muts, mutation{Op: "delete", ID: base + int64(j)})
	}
	return muts
}

func mutationBody(seed int64, i int, popN int, schema *dataset.Schema) []byte {
	body, _ := json.Marshal(map[string]any{"mutations": mutationBatch(seed, i, popN, schema)})
	return body
}

// arrival is one entry of an open-loop schedule: when the op is due (from the
// start of the phase), which class it belongs to and which query it sends.
type arrival struct {
	Due   time.Duration
	Class int
	Pick  int
}

// schedule is a seeded open-loop schedule alternating two classes at a mean
// rate. Periodic, arrivals are evenly spaced. Otherwise they are a Poisson
// process — independent users — which keeps a generator whose period happens
// to match a closed-loop client's cycle from beating against it.
type schedule struct {
	dues  []time.Duration // cyclic: arrival i is due at dues[i%len] + (i/len)*cycle
	cycle time.Duration
	picks [2]pickSequence
}

func newSchedule(seed int64, rate float64, periodic bool, picks0, picks1 pickSequence) *schedule {
	s := &schedule{dues: make([]time.Duration, 1<<14), picks: [2]pickSequence{picks0, picks1}}
	rng := rand.New(rand.NewSource(seed*1000003 + 12))
	mean := float64(time.Second) / rate
	for i := range s.dues {
		s.dues[i] = s.cycle
		gap := mean
		if !periodic {
			gap *= rng.ExpFloat64()
		}
		s.cycle += time.Duration(gap)
	}
	return s
}

func (s *schedule) at(i int) arrival {
	class, n := i%2, len(s.dues)
	return arrival{
		Due:   s.dues[i%n] + time.Duration(i/n)*s.cycle,
		Class: class, Pick: s.picks[class].at(i / 2),
	}
}
