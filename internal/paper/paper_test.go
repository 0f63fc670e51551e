// Package paper encodes the paper's worked examples and constructions as
// executable tests: the shared-cost semantics of Example 4, the distributed
// sampling walk-through of Example 5, the sharing dilemma of Examples 3/6,
// and the NP-hardness reduction of Section 5.2 (minimum vertex cover as an
// MSSD query), verified against brute force.
package paper

import (
	"math/rand"
	"testing"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stats"
	"repro/internal/stratified"
)

// --- Example 4: a face-to-face survey ($20) and a telephone survey ($4);
// surveying one individual for both costs max(20, 4) = $20. ---

func TestExample4SharedCostSemantics(t *testing.T) {
	costs := query.TableCosts{
		Interview: []float64{20, 4},
		Shared:    map[query.Tau]float64{query.NewTau(0, 1): 20},
	}
	if got := costs.Cost(query.NewTau(0)); got != 20 {
		t.Fatalf("c{1} = %g", got)
	}
	if got := costs.Cost(query.NewTau(1)); got != 4 {
		t.Fatalf("c{2} = %g", got)
	}
	if got := costs.Cost(query.NewTau(0, 1)); got != 20 {
		t.Fatalf("c{1,2} = %g, want max(c1, c2) = 20", got)
	}
}

// --- Example 5: R has 64 individuals — 30 men and 34 women — on two
// machines; R1 = 20 men + 16 women, R2 = 10 men + 18 women; select 5 men and
// 6 women. ---

func example5Population() (*dataset.Relation, []dataset.Split) {
	schema := dataset.MustSchema(dataset.Field{Name: "gender", Min: 0, Max: 1})
	r := dataset.NewRelation(schema)
	id := int64(0)
	add := func(n int, gender int64) dataset.Split {
		var split dataset.Split
		for i := 0; i < n; i++ {
			tp := dataset.Tuple{ID: id, Attrs: []int64{gender}}
			r.MustAdd(tp)
			split = append(split, tp)
			id++
		}
		return split
	}
	r1 := append(add(20, 1), add(16, 0)...)
	r2 := append(add(10, 1), add(18, 0)...)
	return r, []dataset.Split{r1, r2}
}

func TestExample5DistributedSampling(t *testing.T) {
	r, splits := example5Population()
	q := query.NewSSD("ex5",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 5},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 6},
	)
	cluster := &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}
	ans, met, err := stratified.RunSQE(cluster, q, r.Schema(), splits, stratified.Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ans.Satisfies(q, r); err != nil {
		t.Fatal(err)
	}
	// Two mappers × two strata → four intermediate weighted samples, as in
	// the paper's narration ("the reducer for s1 receives 5 tuples from
	// each combiner").
	if met.ShuffleRecords != 4 {
		t.Fatalf("shuffle records %d, want 4 combiner outputs", met.ShuffleRecords)
	}
	if met.CombineOutputRecs != 4 {
		t.Fatalf("combine outputs %d, want 4", met.CombineOutputRecs)
	}
}

// TestExample5MenUniform: in the Example 5 layout, each of the 30 men must
// be selected with probability 5/30 despite the 20/10 machine imbalance.
func TestExample5MenUniform(t *testing.T) {
	const runs = 6000
	r, splits := example5Population()
	q := query.NewSSD("ex5men", query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 5})
	cluster := &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}
	counts := make([]int64, 0, 30)
	perID := map[int64]int64{}
	for run := 0; run < runs; run++ {
		ans, _, err := stratified.RunSQE(cluster, q, r.Schema(), splits, stratified.Options{Seed: int64(run)})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range ans.Strata[0] {
			perID[tp.ID]++
		}
	}
	for _, c := range perID {
		counts = append(counts, c)
	}
	if len(perID) < 30 {
		t.Fatalf("only %d of 30 men ever sampled", len(perID))
	}
	p, err := stats.ChiSquareUniformP(counts)
	if err != nil {
		t.Fatal(err)
	}
	if p < 1e-4 {
		t.Fatalf("men inclusion biased: p = %g", p)
	}
}

// --- Example 3/6: 50 men and 100 singles; naive maximal sharing (all men
// single) is biased, CPS keeps frequencies representative. ---

func TestExample6RepresentativeSharing(t *testing.T) {
	// Population: gender × income with controlled counts.
	schema := dataset.MustSchema(
		dataset.Field{Name: "gender", Min: 0, Max: 1},
		dataset.Field{Name: "income", Min: 0, Max: 300000},
	)
	r := dataset.NewRelation(schema)
	rng := rand.New(rand.NewSource(5))
	for i := int64(0); i < 600; i++ {
		gender := i % 2
		income := int64(rng.Intn(300001))
		r.MustAdd(dataset.Tuple{ID: i, Attrs: []int64{gender, income}})
	}
	q1 := query.NewSSD("Q1",
		query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: 10},
		query.Stratum{Cond: predicate.MustParse("gender = 0"), Freq: 15},
	)
	q2 := query.NewSSD("Q2",
		query.Stratum{Cond: predicate.MustParse("income < 50000"), Freq: 12},
		query.Stratum{Cond: predicate.MustParse("income > 200000"), Freq: 12},
	)
	m := query.NewMSSD(query.PenaltyCosts{Interview: 1}, q1, q2)
	splits, err := dataset.Partition(r, 2, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	cluster := &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}

	// Over many runs, the fraction of women among Q1's answers must stay
	// 15/25 — CPS must not skew it to maximise sharing with Q2 (the trap
	// Example 6 warns about); and the fraction of high-income individuals
	// in Q1's *female stratum* must match their population share.
	const runs = 300
	var richWomenInA1, womenInA1 float64
	for run := 0; run < runs; run++ {
		res, err := cps.Run(cluster, m, r.Schema(), splits, cps.Options{Seed: int64(run)})
		if err != nil {
			t.Fatal(err)
		}
		for _, tp := range res.Answers[0].Strata[1] { // women stratum
			womenInA1++
			if tp.Attrs[1] > 200000 {
				richWomenInA1++
			}
		}
	}
	// Population share of >200k income among women.
	women := r.Select(func(tp *dataset.Tuple) bool { return tp.Attrs[0] == 0 })
	rich := 0
	for i := range women {
		if women[i].Attrs[1] > 200000 {
			rich++
		}
	}
	wantFrac := float64(rich) / float64(len(women))
	gotFrac := richWomenInA1 / womenInA1
	if gotFrac < wantFrac*0.85 || gotFrac > wantFrac*1.15 {
		t.Fatalf("rich-women share in A1 = %.3f, population share %.3f — sample was biased to maximise sharing",
			gotFrac, wantFrac)
	}
}

// --- Section 5.2: the NP-hardness reduction. A graph's minimum vertex cover
// is an optimal MSSD answer: one SSD per edge with stratum "id = u or id = v"
// and frequency 1, interview cost 1, sharing free. ---

func TestVertexCoverReduction(t *testing.T) {
	// A small graph with known minimum vertex cover.
	edges := [][2]int64{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {3, 4}, {4, 5}}
	const nodes = 6

	schema := dataset.MustSchema(dataset.Field{Name: "id", Min: 0, Max: nodes - 1})
	r := dataset.NewRelation(schema)
	for v := int64(0); v < nodes; v++ {
		r.MustAdd(dataset.Tuple{ID: v, Attrs: []int64{v}})
	}
	queries := make([]*query.SSD, len(edges))
	for e, uv := range edges {
		cond := predicate.Or{
			L: predicate.Compare{Attr: "id", Op: predicate.Eq, Value: uv[0]},
			R: predicate.Compare{Attr: "id", Op: predicate.Eq, Value: uv[1]},
		}
		queries[e] = query.NewSSD("edge", query.Stratum{Cond: cond, Freq: 1})
	}
	m := query.NewMSSD(query.PenaltyCosts{Interview: 1}, queries...)

	// The *unconstrained* optimum of this MSSD is the minimum vertex cover
	// — that equivalence is what makes optimal MSSD answering NP-hard.
	minCover := bruteForceVertexCover(edges, nodes)
	if minCover != 3 {
		t.Fatalf("test graph's minimum cover is %d, want 3", minCover)
	}

	var costs []float64
	for run := 0; run < 40; run++ {
		res, err := cps.Sequential(m, r, rand.New(rand.NewSource(int64(run))), cps.SolveOptions{Integer: true})
		if err != nil {
			t.Fatal(err)
		}
		cost := res.Answers.Cost(m.Costs) // = number of distinct selected vertices
		costs = append(costs, cost)

		// Every answer is a valid cover: each edge-survey got a vertex.
		selected := map[int64]bool{}
		for id := range res.Answers.Assignments() {
			selected[id] = true
		}
		for _, uv := range edges {
			if !selected[uv[0]] && !selected[uv[1]] {
				t.Fatalf("edge %v uncovered by %v", uv, selected)
			}
		}
		// No answer beats the true optimum...
		if int(cost) < minCover {
			t.Fatalf("cover of size %g below the minimum %d", cost, minCover)
		}
		// ...and sharing keeps it below the no-sharing cost of one vertex
		// per edge.
		if int(cost) > len(edges) {
			t.Fatalf("cover of size %g worse than no sharing at all", cost)
		}
	}
	// CPS must not systematically reach the minimum cover: it is optimal
	// only among algorithms returning *representative* samples — each
	// edge-survey picks its endpoint uniformly — while the vertex-cover
	// optimum requires exactly the biased, engineered selection the
	// framework forbids. This is the content of the NP-hardness argument:
	// dropping representativeness makes the problem as hard as vertex
	// cover; CPS keeps representativeness and stays polynomial.
	var mean float64
	for _, c := range costs {
		mean += c
	}
	mean /= float64(len(costs))
	if mean <= float64(minCover) {
		t.Fatalf("mean CPS cover %.2f at the NP-hard optimum %d — representativeness constraint lost", mean, minCover)
	}
}

// bruteForceVertexCover enumerates all vertex subsets.
func bruteForceVertexCover(edges [][2]int64, nodes int) int {
	best := nodes
	for mask := 0; mask < 1<<nodes; mask++ {
		covered := true
		for _, uv := range edges {
			if mask&(1<<uv[0]) == 0 && mask&(1<<uv[1]) == 0 {
				covered = false
				break
			}
		}
		if !covered {
			continue
		}
		size := 0
		for v := 0; v < nodes; v++ {
			if mask&(1<<v) != 0 {
				size++
			}
		}
		if size < best {
			best = size
		}
	}
	return best
}
