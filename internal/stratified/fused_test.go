package stratified

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stats"
)

// The fused stage (fused.go) promises what Figure 2 promises — exact fill,
// uniform inclusion, the per-record path's logical counters — not the
// per-record path's random stream. These tests pin exactly that.

// perRecord is the per-record map path the engine had before the split-level
// stage became its only map interface, kept here as the reference the fused
// stages' counters are checked against: Map runs on every record, the task's
// map output is grouped by key, and Combine runs once per key in KeyString
// order — so the task's random stream is consumed independently of the map
// emission order — its output going to the shuffle.
type perRecord[K comparable, V any] struct {
	Map       func(ctx *mapreduce.TaskContext, t dataset.Tuple, emit func(K, V))
	Combine   func(ctx *mapreduce.TaskContext, key K, values []V, emit func(V))
	KeyString func(K) string
}

func (p perRecord[K, V]) MapSplit(ctx *mapreduce.TaskContext, b dataset.Block, emit func(K, V)) (matches, combined int64) {
	// Buffer map output per key, preserving key first-seen order.
	index := map[K]int{}
	var keys []K
	var lists [][]V
	group := func(k K, v V) {
		i, seen := index[k]
		if !seen {
			i = len(keys)
			index[k] = i
			keys, lists = append(keys, k), append(lists, nil)
		}
		lists[i] = append(lists[i], v)
		matches++
	}
	for _, t := range b.Rows {
		p.Map(ctx, t, group)
	}
	// Deterministic combine order: sort keys canonically.
	order := make([]int, len(keys))
	names := make([]string, len(keys))
	for i, k := range keys {
		order[i], names[i] = i, p.KeyString(k)
	}
	sort.Slice(order, func(a, b int) bool { return names[order[a]] < names[order[b]] })
	for _, i := range order {
		combined += int64(len(lists[i]))
		p.Combine(ctx, keys[i], lists[i], func(v V) { emit(keys[i], v) })
	}
	return matches, combined
}

// weighted is the tuple-shaped intermediate sample the per-record path
// shuffles: the paper's (S̄, N̄) with the tuples themselves in S̄.
type weighted = sampling.Weighted[dataset.Tuple]

// singleton is a per-record map output, ({t}, 1).
func singleton(t dataset.Tuple) weighted { return weighted{Sample: []dataset.Tuple{t}, N: 1} }

// combiner is the Figure 2 combine function of the per-record path: it
// locally selects an intermediate sample of capacity freq(key) over the map
// task's tuples for that key and tags it with the number of tuples it saw,
// observing each sample's size into "reservoir_size".
func combiner[K comparable](freq func(K) int) func(*mapreduce.TaskContext, K, []weighted, func(weighted)) {
	return func(ctx *mapreduce.TaskContext, k K, vs []weighted, emit func(weighted)) {
		n := sampling.TotalN(vs)
		target := freq(k)
		exhaustive := true
		for _, w := range vs {
			if w.N != int64(len(w.Sample)) {
				exhaustive = false
				break
			}
		}
		if exhaustive {
			// Common case: every part is raw map output (singletons),
			// so stream the tuples through the reservoir, as in the
			// paper's combine function.
			res := sampling.NewReservoir[dataset.Tuple](target, ctx.Rand)
			for _, w := range vs {
				res.AddSlice(w.Sample)
			}
			sample := res.Sample()
			ctx.Observe("reservoir_size", int64(len(sample)))
			emit(weighted{Sample: sample, N: n})
			return
		}
		// Some parts were already subsampled (a combiner re-run):
		// merge them without bias via the unified sampler.
		sample := sampling.UnifiedSample(vs, target, ctx.Rand)
		ctx.Observe("reservoir_size", int64(len(sample)))
		emit(weighted{Sample: sample, N: n})
	}
}

// keyedReference is the per-record job the derived MR-CPS stages replaced:
// classify names the string-keyed classes a tuple falls in, classes absent
// from freqs are dropped at the map stage, every match is a singleton the
// combiner samples down.
func keyedReference(classify func(t *dataset.Tuple, emit func(string)), freqs map[string]int, exclude map[int64]struct{}) *mapreduce.Job[dataset.Block, string, weighted, int] {
	return &mapreduce.Job[dataset.Block, string, weighted, int]{
		Name: "keyed-reference",
		Mapper: perRecord[string, weighted]{
			Map: func(_ *mapreduce.TaskContext, t dataset.Tuple, emit func(string, weighted)) {
				if _, skip := exclude[t.ID]; skip {
					return
				}
				classify(&t, func(key string) {
					if _, want := freqs[key]; want {
						emit(key, singleton(t))
					}
				})
			},
			Combine:   combiner(func(k string) int { return freqs[k] }),
			KeyString: func(k string) string { return k },
		},
		Reducer: mapreduce.ReducerFunc[string, weighted, int](
			func(ctx *mapreduce.TaskContext, k string, vs []weighted, emit func(int)) {
				emit(len(sampling.UnifiedSample(vs, freqs[k], ctx.Rand)))
			}),
		KeyString: func(k string) string { return k },
	}
}

// countReference is the per-record limits job: (key, 1) per listed match, a
// summing combiner and reducer.
func countReference(classify func(t *dataset.Tuple, emit func(string)), listed map[string]bool, exclude map[int64]struct{}) *mapreduce.Job[dataset.Block, string, int64, int64] {
	sum := func(vs []int64) (n int64) {
		for _, v := range vs {
			n += v
		}
		return n
	}
	return &mapreduce.Job[dataset.Block, string, int64, int64]{
		Name: "count-reference",
		Mapper: perRecord[string, int64]{
			Map: func(_ *mapreduce.TaskContext, t dataset.Tuple, emit func(string, int64)) {
				if _, skip := exclude[t.ID]; skip {
					return
				}
				classify(&t, func(key string) {
					if listed[key] {
						emit(key, 1)
					}
				})
			},
			Combine:   func(_ *mapreduce.TaskContext, _ string, vs []int64, emit func(int64)) { emit(sum(vs)) },
			KeyString: func(k string) string { return k },
		},
		Reducer: mapreduce.ReducerFunc[string, int64, int64](
			func(_ *mapreduce.TaskContext, _ string, vs []int64, emit func(int64)) { emit(sum(vs)) }),
		KeyString: func(k string) string { return k },
	}
}

// selectionFixture is a random population of n over testSchema (IDs 0..n-1),
// a three-query list and its ordered selection list: every σ(t) the
// population has except the first (so some tuples' selections are unlisted),
// plus one no tuple has. selOf is the row-wise σ(t).
func selectionFixture(t *testing.T, n int) (r *dataset.Relation, queries []*query.SSD, sels [][]int, selOf func(*dataset.Tuple) []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(23))
	r = dataset.NewRelation(testSchema())
	for id := 0; id < n; id++ {
		r.MustAdd(dataset.Tuple{ID: int64(id), Attrs: []int64{rng.Int63n(2), rng.Int63n(1001)}})
	}
	queries = []*query.SSD{
		genderSSD(7, 5),
		incomeSSD(6, 9),
		query.NewSSD("young-men", query.Stratum{Cond: predicate.MustParse("income < 120 and gender = 1"), Freq: 4}),
	}
	classes, err := classifiers(queries, r.Schema())
	if err != nil {
		t.Fatal(err)
	}
	selOf = func(tp *dataset.Tuple) []int {
		sel := make([]int, len(classes))
		for qi, cls := range classes {
			sel[qi] = cls.Classify(tp)
		}
		return sel
	}
	seen := map[string][]int{}
	for _, tp := range r.Tuples() {
		sel := selOf(&tp)
		seen[SelectionKey(sel)] = sel
	}
	keys := make([]string, 0, len(seen))
	for key := range seen {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys[1:] {
		sels = append(sels, seen[key])
	}
	sels = append(sels, []int{1, 1, 0}) // a woman among the young men
	return r, queries, sels, selOf
}

// TestFusedExactFill: every stratum gets min(f_k, |stratum|) distinct members
// of the stratum, including strata smaller than f_k, Freq = 0 and a stratum
// nobody is in, across several queries sharing one pass.
func TestFusedExactFill(t *testing.T) {
	r := genderPop(3, 40) // 3 men: fewer than most f_k below
	splits, _ := dataset.Partition(r, 5, dataset.Skewed, nil)
	queries := []*query.SSD{
		genderSSD(5, 6),  // men short: 3 of 5
		genderSSD(0, 40), // Freq = 0, and the whole women stratum
		incomeSSD(7, 2),  // income >= 500 is empty here (ids < 43)
	}
	answers, _, err := RunMQE(zeroCluster(3), queries, r.Schema(), splits, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{3, 6}, {0, 40}, {7, 0}}
	for qi, q := range queries {
		if err := answers[qi].Satisfies(q, r); err != nil {
			t.Errorf("query %d: %v", qi, err)
		}
		for k := range q.Strata {
			if got := len(answers[qi].Strata[k]); got != want[qi][k] {
				t.Errorf("query %d stratum %d: %d tuples, want %d", qi, k, got, want[qi][k])
			}
		}
	}
	single, _, err := RunSQE(zeroCluster(3), queries[0], r.Schema(), splits, Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(single.Strata[0]) != 3 || len(single.Strata[1]) != 6 {
		t.Errorf("SQE fill %d/%d, want 3/6", len(single.Strata[0]), len(single.Strata[1]))
	}
}

// TestFusedMQEUniformOverUnequalSplits: with machines holding very different
// shares of each stratum, every member of every (query, stratum) is included
// equally often — Example 5's 20/10 men, 16/18 women layout and a skewed
// 8-split layout, at the strata audit gate.
func TestFusedMQEUniformOverUnequalSplits(t *testing.T) {
	const runs, alpha = 3000, 1e-4
	r := genderPop(30, 34)
	all := r.Tuples()
	men, women := all[:30], all[30:]
	example5 := []dataset.Split{
		append(append(dataset.Split(nil), men[:20]...), women[:16]...),
		append(append(dataset.Split(nil), men[20:]...), women[16:]...),
	}
	skewed, err := dataset.Partition(r, 8, dataset.Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*query.SSD{genderSSD(5, 6), incomeSSD(4, 0), genderSSD(9, 2)}
	for name, splits := range map[string][]dataset.Split{"example5": example5, "skewed8": skewed} {
		counts := make([][]int64, len(queries))
		for qi := range counts {
			counts[qi] = make([]int64, r.Len())
		}
		for run := 0; run < runs; run++ {
			answers, _, err := RunMQE(zeroCluster(4), queries, r.Schema(), splits, Options{Seed: int64(run)})
			if err != nil {
				t.Fatal(err)
			}
			for qi, ans := range answers {
				for _, tp := range ans.Union() {
					counts[qi][tp.ID]++
				}
			}
		}
		// Men are ids 0..29 and women 30..63; income = id, so all are < 500.
		cells := map[string][]int64{
			"Q1/men": counts[0][:30], "Q1/women": counts[0][30:],
			"Q2/low": counts[1],
			"Q3/men": counts[2][:30], "Q3/women": counts[2][30:],
		}
		for cell, c := range cells {
			p, err := stats.ChiSquareUniformP(c)
			if err != nil {
				t.Fatal(err)
			}
			if p < alpha {
				t.Errorf("%s %s: inclusion biased, p = %g", name, cell, p)
			}
		}
	}
}

// TestFusedDrawsEverySubsetEqually: the answer is a simple random sample, not
// only first-order fair. For strata small enough to enumerate — 6 men, f = 3
// (20 subsets) and 8 women, f = 2 (28) — held by one machine (the map-side
// draw alone decides) and spread unequally over two (4 + 2 men, 1 + 7 women:
// draw, then the unified sampler), every subset is the answer equally often
// over many seeds, at the strata audit gate.
func TestFusedDrawsEverySubsetEqually(t *testing.T) {
	const runs, alpha = 12000, 1e-4
	r := genderPop(6, 8)
	all := r.Tuples()
	men, women := all[:6], all[6:]
	layouts := map[string][]dataset.Split{
		"one split": {all},
		"unequal": {
			append(append(dataset.Split(nil), men[:4]...), women[:1]...),
			append(append(dataset.Split(nil), men[4:]...), women[1:]...),
		},
	}
	q := genderSSD(3, 2)
	for name, splits := range layouts {
		subsets := [2]map[uint]int64{{}, {}}
		for run := 0; run < runs; run++ {
			ans, _, err := RunSQE(zeroCluster(2), q, r.Schema(), splits, Options{Seed: int64(run)})
			if err != nil {
				t.Fatal(err)
			}
			for k, sample := range ans.Strata {
				var set uint
				for _, tp := range sample {
					set |= 1 << tp.ID
				}
				subsets[k][set]++
			}
		}
		for k, want := range []int{20, 28} {
			if len(subsets[k]) != want {
				t.Errorf("%s stratum %d: %d distinct subsets drawn, want all %d", name, k, len(subsets[k]), want)
				continue
			}
			observed := make([]int64, 0, want)
			for _, n := range subsets[k] {
				observed = append(observed, n)
			}
			p, err := stats.ChiSquareUniformP(observed)
			if err != nil {
				t.Fatal(err)
			}
			if p < alpha {
				t.Errorf("%s stratum %d: subsets not equally likely, p = %g", name, k, p)
			}
		}
	}
}

// TestSelectionStagesUniformAndExact: the derived stages keep Algorithm 1's
// guarantee. Over the same unequal layouts, Q′ (one vector) and the residual
// (one vector per survey, with chosen IDs) fill every wanted selection with
// exactly min(f, |eligible|) tuples of it, never offer a chosen ID, and
// include every eligible member equally often, at the strata audit gate.
func TestSelectionStagesUniformAndExact(t *testing.T) {
	const runs, alpha = 3000, 1e-4
	r := genderPop(30, 34) // income = id
	all := r.Tuples()
	men, women := all[:30], all[30:]
	example5 := []dataset.Split{
		append(append(dataset.Split(nil), men[:20]...), women[:16]...),
		append(append(dataset.Split(nil), men[20:]...), women[16:]...),
	}
	skewed, err := dataset.Partition(r, 8, dataset.Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*query.SSD{
		genderSSD(1, 1),
		query.NewSSD("low-id", query.Stratum{Cond: predicate.MustParse("income < 10"), Freq: 1}),
	}
	// Men 0..9, men 10..29, women 30..63.
	sels := [][]int{{0, 0}, {0, -1}, {1, -1}}
	combined := [][]int{{4, 6, 9}}
	deficit := [][]int{{3, 0, 5}, {0, 4, 40}} // 40 > 34 women: take them all
	chosen := []map[int64]struct{}{{0: {}, 1: {}, 30: {}, 31: {}}, {10: {}, 11: {}}}
	for name, splits := range map[string][]dataset.Split{"example5": example5, "skewed8": skewed} {
		counts := make([][]int64, 3) // Q′, residual vector 0, residual vector 1
		for i := range counts {
			counts[i] = make([]int64, r.Len())
		}
		tally := func(what string, counts []int64, samples [][]dataset.Tuple, want []int) {
			for j, sample := range samples {
				if len(sample) != want[j] {
					t.Fatalf("%s %s selection %d: %d tuples, want %d", name, what, j, len(sample), want[j])
				}
				for _, tp := range sample {
					counts[tp.ID]++
				}
			}
		}
		for run := 0; run < runs; run++ {
			q, _, err := SampleSelections(zeroCluster(4), queries, r.Schema(), splits, sels, combined, nil, nil, int64(run))
			if err != nil {
				t.Fatal(err)
			}
			tally("Q′", counts[0], q[0].Strata, []int{4, 6, 9})
			res, _, err := SampleSelections(zeroCluster(4), queries, r.Schema(), splits, sels, deficit, chosen, nil, int64(run))
			if err != nil {
				t.Fatal(err)
			}
			tally("residual 0", counts[1], res[0].Strata, []int{3, 0, 5})
			tally("residual 1", counts[2], res[1].Strata, []int{0, 4, 34})
		}
		for id := range chosen[0] {
			if counts[1][id] != 0 {
				t.Errorf("%s: residual vector 0 sampled its chosen ID %d", name, id)
			}
		}
		for id := range chosen[1] {
			if counts[2][id] != 0 {
				t.Errorf("%s: residual vector 1 sampled its chosen ID %d", name, id)
			}
		}
		for id := 0; id < 30; id++ {
			if id < 10 && counts[2][id] != 0 || id >= 10 && counts[1][id] != 0 {
				t.Errorf("%s: ID %d sampled into a selection with no deficit", name, id)
			}
		}
		cells := map[string][]int64{
			"Q′/men<10": counts[0][:10], "Q′/men>=10": counts[0][10:30], "Q′/women": counts[0][30:],
			"residual 0/men<10": counts[1][2:10], "residual 0/women": counts[1][32:],
			"residual 1/men>=10": counts[2][12:30], "residual 1/women": counts[2][30:],
		}
		for cell, c := range cells {
			p, err := stats.ChiSquareUniformP(c)
			if err != nil {
				t.Fatal(err)
			}
			if p < alpha {
				t.Errorf("%s %s: inclusion biased, p = %g", name, cell, p)
			}
		}
	}
}

// TestFusedCountersMatchPerRecordPath: a fused job reports the logical
// counters of the per-record mapper + combiner on the same input, so Metrics,
// the simulated cost model and the paper's combiner-output counts read the
// same whichever way the map task ran — for MR-MQE and for the derived
// MR-CPS jobs (Q′, residual, limits), whose reference is the string-keyed
// per-record job they replaced.
func TestFusedCountersMatchPerRecordPath(t *testing.T) {
	r := genderPop(500, 450)
	splits, _ := dataset.Partition(r, 5, dataset.Skewed, nil)
	cluster := func() *mapreduce.Cluster {
		return &mapreduce.Cluster{Slaves: 3, Cost: mapreduce.DefaultCostModel()}
	}
	counters := func(m mapreduce.Metrics) string {
		return fmt.Sprintf("map in %d out %d, combine in %d out %d, shuffle %d, groups %d, simulated map %v, reservoir sizes %v",
			m.MapInputRecords, m.MapOutputRecords, m.CombineInputRecs, m.CombineOutputRecs,
			m.ShuffleRecords, m.ReduceInputGroups, m.SimulatedMap, m.Custom["reservoir_size"])
	}
	queries := []*query.SSD{genderSSD(7, 5), incomeSSD(6, 9), genderSSD(0, 3)}
	excludes := []map[int64]struct{}{nil, {2: {}, 499: {}, 900: {}}}
	for _, exclude := range excludes {
		opts := Options{Seed: 11, Exclude: exclude}
		cfg := opts.config(r.Schema(), queries...)
		fused, err := buildMQEJob(cfg, r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		classes, err := classifiers(queries, r.Schema())
		if err != nil {
			t.Fatal(err)
		}
		// MR-MQE as the paper writes it: ((Q_i, s_k), ({t}, 1)) for every
		// query whose stratum the tuple satisfies, then the combiner.
		reference := &mapreduce.Job[dataset.Block, QSKey, weighted, int]{
			Name: fused.Name,
			Mapper: perRecord[QSKey, weighted]{
				Map: func(_ *mapreduce.TaskContext, t dataset.Tuple, emit func(QSKey, weighted)) {
					if _, skip := exclude[t.ID]; skip {
						return
					}
					for qi, cls := range classes {
						if k := cls.Classify(&t); k >= 0 {
							emit(QSKey{qi, k}, singleton(t))
						}
					}
				},
				Combine:   combiner(func(k QSKey) int { return queries[k.Query].Strata[k.Stratum].Freq }),
				KeyString: fused.KeyString,
			},
			Reducer: mapreduce.ReducerFunc[QSKey, weighted, int](
				func(_ *mapreduce.TaskContext, _ QSKey, _ []weighted, emit func(int)) { emit(0) }),
			KeyString: fused.KeyString,
		}
		fused.Seed, reference.Seed = opts.Seed, opts.Seed
		a, err := mapreduce.Run(cluster(), fused, dataset.Blocks(splits))
		if err != nil {
			t.Fatal(err)
		}
		b, err := mapreduce.Run(cluster(), reference, dataset.Blocks(splits))
		if err != nil {
			t.Fatal(err)
		}
		if got, want := counters(a.Metrics), counters(b.Metrics); got != want {
			t.Errorf("exclude %d: fused counters differ from the per-record path:\n fused:      %s\n per-record: %s",
				len(exclude), got, want)
		}
	}

	r, queries, sels, selOf := selectionFixture(t, 950)
	splits, _ = dataset.Partition(r, 5, dataset.Skewed, nil)
	sigma := func(tp *dataset.Tuple, emit func(string)) { emit(SelectionKey(selOf(tp))) }
	// Q′: one vector; selection 2 is listed but not wanted.
	want := make([]int, len(sels))
	wantByKey := map[string]int{}
	for j, sel := range sels {
		if j != 2 {
			want[j] = 3 + 4*j
			wantByKey[SelectionKey(sel)] = want[j]
		}
	}
	// Residual: one vector per survey, deficits in a few (survey, selection)
	// slots, and per-survey chosen IDs that sit in those selections.
	deficit := make([][]int, len(queries))
	deficitByKey := map[string]int{}
	residKey := func(i int, sel []int) string { return fmt.Sprintf("%04d/", i) + SelectionKey(sel) }
	for i := range deficit {
		deficit[i] = make([]int, len(sels))
		for j := i; j < len(sels); j += 2 {
			deficit[i][j] = 2 + i + j
			deficitByKey[residKey(i, sels[j])] = deficit[i][j]
		}
	}
	chosen := []map[int64]struct{}{{0: {}, 5: {}, 600: {}}, {}, {7: {}, 100: {}, 101: {}, 949: {}}}
	residual := func(tp *dataset.Tuple, emit func(string)) {
		for i := range deficit {
			if _, taken := chosen[i][tp.ID]; !taken {
				emit(residKey(i, selOf(tp)))
			}
		}
	}
	listed := map[string]bool{}
	for _, sel := range sels {
		listed[SelectionKey(sel)] = true
	}
	for _, exclude := range excludes {
		run := func(name string, derived, reference func() (mapreduce.Metrics, error)) {
			t.Helper()
			a, err := derived()
			if err != nil {
				t.Fatal(err)
			}
			b, err := reference()
			if err != nil {
				t.Fatal(err)
			}
			if got, want := counters(a), counters(b); got != want {
				t.Errorf("%s, exclude %d: fused counters differ from the per-record path:\n fused:      %s\n per-record: %s",
					name, len(exclude), got, want)
			}
			if a.MapOutputRecords == 0 || a.MapOutputRecords == a.MapInputRecords*int64(len(queries)) {
				t.Errorf("%s: %d matches of %d records: the case filters nothing", name, a.MapOutputRecords, a.MapInputRecords)
			}
		}
		keyed := func(classify func(*dataset.Tuple, func(string)), freqs map[string]int) func() (mapreduce.Metrics, error) {
			return func() (mapreduce.Metrics, error) {
				job := keyedReference(classify, freqs, exclude)
				job.Seed = 11
				res, err := mapreduce.Run(cluster(), job, dataset.Blocks(splits))
				if err != nil {
					return mapreduce.Metrics{}, err
				}
				return res.Metrics, nil
			}
		}
		run("Q′", func() (mapreduce.Metrics, error) {
			_, met, err := SampleSelections(cluster(), queries, r.Schema(), splits, sels, [][]int{want}, nil, exclude, 11)
			return met, err
		}, keyed(sigma, wantByKey))
		run("residual", func() (mapreduce.Metrics, error) {
			_, met, err := SampleSelections(cluster(), queries, r.Schema(), splits, sels, deficit, chosen, exclude, 11)
			return met, err
		}, keyed(residual, deficitByKey))
		run("limits", func() (mapreduce.Metrics, error) {
			_, met, err := SampleSelections(cluster(), queries, r.Schema(), splits, sels, nil, nil, exclude, 11)
			return met, err
		}, func() (mapreduce.Metrics, error) {
			job := countReference(sigma, listed, exclude)
			res, err := mapreduce.Run(cluster(), job, dataset.Blocks(splits))
			if err != nil {
				return mapreduce.Metrics{}, err
			}
			return res.Metrics, nil
		})
	}
}

// rowwiseStage is the fused stage without class vectors, blocks or pooled
// scratch: row-wise Classifier.Classify into one match list per (query,
// stratum), then the same draw per key in the same order. It is the reference
// the block-classifying MapSplit must equal emission for emission.
type rowwiseStage struct {
	queries []*query.SSD
	classes []*predicate.Classifier
	exclude map[int64]struct{}
}

func (s *rowwiseStage) MapSplit(ctx *mapreduce.TaskContext, b dataset.Block, emit func(QSKey, refSample)) (matches, combined int64) {
	split := b.Rows
	lists := make([][][]int32, len(s.queries))
	for qi, q := range s.queries {
		lists[qi] = make([][]int32, len(q.Strata))
	}
	for ti := range split {
		t := &split[ti]
		if _, skip := s.exclude[t.ID]; skip {
			continue
		}
		for qi, cls := range s.classes {
			if k := cls.Classify(t); k >= 0 {
				lists[qi][k] = append(lists[qi][k], int32(ti))
				matches++
			}
		}
	}
	for qi := range lists {
		for k, rows := range lists[qi] {
			if len(rows) == 0 {
				continue
			}
			n := int64(len(rows))
			drawn, _ := sampling.DrawWithoutReplacement(rows, s.queries[qi].Strata[k].Freq, ctx.Rand)
			sample := refSample{Rows: make([]rowRef, 0, len(drawn)), N: n}
			for _, ti := range drawn {
				sample.Rows = append(sample.Rows, rowRef{int32(ctx.Task), ti})
				sample.Bytes += int64(split[ti].ByteSize())
			}
			ctx.Observe("reservoir_size", int64(len(drawn)))
			emit(QSKey{qi, k}, sample)
		}
	}
	return matches, matches
}

// randomSSD draws a query over testSchema (gender 0..1, income 0..1000):
// sometimes a covering grid, sometimes strata that overlap or leave tuples
// unclassified, so class vectors hold -1s and first-match-wins matters.
func randomSSD(rng *rand.Rand) *query.SSD {
	cut := 200 + rng.Int63n(600)
	f := func() int { return rng.Intn(12) }
	switch rng.Intn(4) {
	case 0:
		return query.NewSSD("narrow",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income >= %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income < %d", cut)), Freq: f()})
	case 1:
		return query.NewSSD("wide",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 0 and income < %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 0 and income >= %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 1 and income < %d", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("gender = 1 and income >= %d", cut)), Freq: f()})
	case 2:
		return query.NewSSD("gaps",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income < %d and gender = 1", cut/2)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income > %d or income = 7", cut)), Freq: f()})
	default:
		return query.NewSSD("overlap",
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income != %d and gender = 0", cut)), Freq: f()},
			query.Stratum{Cond: predicate.MustParse("true"), Freq: f()})
	}
}

// TestFusedEqualsRowwiseReference: classifying a block ahead through the
// column kernel changes no emission. On random splits (sizes around the block
// boundaries) × 1/2/8 queries × exclude sets, as a block of rows alone and as
// a resident block with its mirror and size column, MapSplit emits the
// reference's keys, references, N and wire size in the reference's order
// from the same seed and returns its match count, and the zero block (no
// rows, no columns) emits nothing; through the engine the reservoir_size
// observations and every counter agree too.
func TestFusedEqualsRowwiseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	schema := testSchema()
	type emission struct {
		Key QSKey
		V   refSample
	}
	for _, size := range []int{0, 1, scanBlock - 1, scanBlock, scanBlock + 1, 2*scanBlock + 300} {
		split := make(dataset.Split, size)
		exclude := map[int64]struct{}{}
		for i := range split {
			split[i] = dataset.Tuple{ID: int64(1000 + i), Attrs: []int64{rng.Int63n(2), rng.Int63n(1001)}}
			if rng.Intn(9) == 0 {
				exclude[split[i].ID] = struct{}{}
			}
		}
		resident := dataset.ResidentBlock(split, schema.NumFields())
		for _, nq := range []int{1, 2, 8} {
			queries := make([]*query.SSD, nq)
			classes := make([]*predicate.Classifier, nq)
			for qi := range queries {
				queries[qi] = randomSSD(rng)
				cls, err := queries[qi].Classifier(schema)
				if err != nil {
					t.Fatal(err)
				}
				classes[qi] = cls
			}
			for _, excl := range []map[int64]struct{}{nil, exclude} {
				name := fmt.Sprintf("size=%d/queries=%d/exclude=%d", size, nq, len(excl))
				seed := rng.Int63()
				run := func(stage mapreduce.Mapper[dataset.Block, QSKey, refSample], b dataset.Block, task int) (out []emission, matches int64) {
					ctx := &mapreduce.TaskContext{Rand: rand.New(rand.NewSource(seed)), Task: task}
					matches, combined := stage.MapSplit(ctx, b, func(k QSKey, v refSample) { out = append(out, emission{k, v}) })
					if combined != matches {
						t.Fatalf("%s: %d of %d matches combined; a sampling stage combines them all", name, combined, matches)
					}
					return out, matches
				}
				// The gathered block reads its rows alone, the resident one
				// its mirror and size column; the zero block holds nothing.
				blocks := []dataset.Block{{Rows: split}, resident, {}}
				stage := qsSamplingJob("", newSplitScan(classes, nil, excl), stratumFreqs(queries)).Mapper
				for task, layout := range []string{"gathered", "resident", "zero"} {
					want, wantMatches := run(&rowwiseStage{queries: queries, classes: classes, exclude: excl}, blocks[task], task)
					got, gotMatches := run(stage, blocks[task], task)
					if gotMatches != wantMatches || !reflect.DeepEqual(got, want) {
						t.Fatalf("%s %s block: %d matches, %d emissions; reference %d matches, %d emissions\n got  %v\n want %v",
							name, layout, gotMatches, len(got), wantMatches, len(want), got, want)
					}
				}

				// Through the engine, where Observe is live.
				build := func(o Options) *sampleJob {
					job, err := buildMQEJob(o.config(schema, queries...), schema)
					if err != nil {
						t.Fatal(err)
					}
					job.Seed = seed
					return job
				}
				splits := []dataset.Split{split[:size/3], split[size/3:]}
				ref := build(Options{Exclude: excl})
				ref.Mapper = &rowwiseStage{queries: queries, classes: classes, exclude: excl}
				fused := build(Options{Exclude: excl})
				residents := []dataset.Block{dataset.ResidentBlock(splits[0], 2), dataset.ResidentBlock(splits[1], 2)}
				var results [3]string
				for i, in := range []struct {
					job    *sampleJob
					blocks []dataset.Block
				}{{ref, dataset.Blocks(splits)}, {fused, dataset.Blocks(splits)}, {fused, residents}} {
					res, err := mapreduce.Run(zeroCluster(2), in.job, in.blocks)
					if err != nil {
						t.Fatal(err)
					}
					m := res.Metrics
					results[i] = fmt.Sprintf("out %v map %d/%d combine %d/%d shuffle %d recs %d B reservoir sizes %v",
						res.Output, m.MapInputRecords, m.MapOutputRecords, m.CombineInputRecs, m.CombineOutputRecs,
						m.ShuffleRecords, m.ShuffleBytes, m.Custom["reservoir_size"])
				}
				if results[1] != results[0] || results[2] != results[0] {
					t.Fatalf("%s: engine runs differ\n reference %s\n gathered  %s\n resident  %s", name, results[0], results[1], results[2])
				}
			}
		}
	}
}

// tallyStage forwards a sampling stage's emissions and adds up the size the
// shuffle counter owes each: 8 bytes for the key, 8 for N, and the
// Tuple.ByteSize of every tuple the value references.
type tallyStage struct {
	mapreduce.Mapper[dataset.Block, QSKey, refSample]
	splits []dataset.Split
	bytes  *atomic.Int64
}

func (s tallyStage) MapSplit(ctx *mapreduce.TaskContext, b dataset.Block, emit func(QSKey, refSample)) (matches, combined int64) {
	return s.Mapper.MapSplit(ctx, b, func(k QSKey, v refSample) {
		n := int64(16)
		for _, ref := range v.Rows {
			n += int64(s.splits[ref.Split][ref.Row].ByteSize())
		}
		s.bytes.Add(n)
		emit(k, v)
	})
}

// TestShuffleBytesCountReferencedTuples: a sampling job ships references, yet
// Metrics.ShuffleBytes is what shipping the referenced tuples would weigh —
// for MR-SQE, MR-MQE, naive MR-MQE and the MR-CPS selection sample, over
// resident blocks (summing their size columns) and blocks of rows alone.
func TestShuffleBytesCountReferencedTuples(t *testing.T) {
	r, queries, sels, _ := selectionFixture(t, 700)
	all := r.Tuples()
	for i := range all {
		all[i].Name = fmt.Sprintf("n%d", i*i%1009) // names of varying length
	}
	splits, err := dataset.Partition(r, 5, dataset.Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	resident := make([]dataset.Block, len(splits))
	for i, split := range splits {
		resident[i] = dataset.ResidentBlock(split, 2)
	}
	freqs := [][]int{make([]int, len(sels))}
	for j := range sels {
		freqs[0][j] = 1 + j%4
	}
	var opts Options
	for _, blocks := range [][]dataset.Block{dataset.Blocks(splits), resident} {
		mqe := opts.config(r.Schema(), queries...)
		naive := *mqe
		naive.Naive = true
		builds := map[string]func() (*sampleJob, error){
			"mr-sqe": func() (*sampleJob, error) {
				return buildSQEJob(opts.config(r.Schema(), queries[0]), r.Schema())
			},
			"mr-mqe": func() (*sampleJob, error) {
				return buildMQEJob(mqe, r.Schema())
			},
			"naive": func() (*sampleJob, error) {
				return buildMQEJob(&naive, r.Schema())
			},
			"selections": func() (*sampleJob, error) {
				sel := *mqe
				sel.Selections, sel.Freqs = sels, freqs
				return buildSelectionSampleJob(&sel, r.Schema())
			},
		}
		for name, build := range builds {
			job, err := build()
			if err != nil {
				t.Fatal(err)
			}
			var want atomic.Int64
			job.Seed, job.Mapper = 5, tallyStage{job.Mapper, splits, &want}
			res, err := mapreduce.Run(zeroCluster(3), job, blocks)
			if err != nil {
				t.Fatal(err)
			}
			if m := res.Metrics; want.Load() == 0 || m.ShuffleBytes != want.Load() || m.BucketBytes.Sum() != want.Load() {
				t.Errorf("%s (size columns: %v): ShuffleBytes %d, buckets %d; the referenced tuples weigh %d",
					name, blocks[0].Sizes != nil, m.ShuffleBytes, m.BucketBytes.Sum(), want.Load())
			}
		}
	}
}
