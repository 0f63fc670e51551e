// Biasdemo: reproduces the bias argument of Section 4.2 of the paper.
//
// When machines hold very different numbers of stratum members (e.g. data is
// stored by region), the "obvious" distributed scheme — draw f_k individuals
// on each machine, then uniformly pick f_k of the candidates — over-selects
// individuals from small machines. The paper's example: a machine with 4 men
// and a machine with 8 men, select 2; naive merging gives machine-1 men a
// 1/4 inclusion probability and machine-2 men 1/8, while a correct sample
// gives everyone 2/12 = 1/6.
//
// This program measures inclusion frequencies of both schemes over many runs
// and shows MR-SQE's unified-sampler removes the bias.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stratified"
)

const (
	smallMachine = 4
	largeMachine = 8
	sampleSize   = 2
	runs         = 60000
)

func main() {
	schema := dataset.MustSchema(dataset.Field{Name: "gender", Min: 0, Max: 1})
	pop := dataset.NewRelation(schema)
	for i := 0; i < smallMachine+largeMachine; i++ {
		pop.MustAdd(dataset.Tuple{ID: int64(i), Attrs: []int64{1}})
	}
	all := pop.Tuples()
	splits := []dataset.Split{
		append(dataset.Split(nil), all[:smallMachine]...),
		append(dataset.Split(nil), all[smallMachine:]...),
	}

	fmt.Printf("population: %d men on a small machine, %d on a large one; sample %d\n\n",
		smallMachine, largeMachine, sampleSize)

	// Naive scheme: per-machine SRS, then uniform SRS of the union.
	rng := rand.New(rand.NewSource(1))
	naive := make([]int, pop.Len())
	for r := 0; r < runs; r++ {
		cand := append(
			sampling.SRS(all[:smallMachine], sampleSize, rng),
			sampling.SRS(all[smallMachine:], sampleSize, rng)...)
		for _, t := range sampling.SRS(cand, sampleSize, rng) {
			naive[t.ID]++
		}
	}

	// MR-SQE: combiner samples are weighted by their source-set size and
	// merged by the unified-sampler.
	q := query.NewSSD("men", query.Stratum{Cond: predicate.MustParse("gender = 1"), Freq: sampleSize})
	cluster := &mapreduce.Cluster{Slaves: 2, Cost: mapreduce.ZeroCostModel()}
	correct := make([]int, pop.Len())
	for r := 0; r < runs; r++ {
		ans, _, err := stratified.RunSQE(cluster, q, schema, splits, stratified.Options{Seed: int64(r)})
		if err != nil {
			log.Fatal(err)
		}
		for _, t := range ans.Strata[0] {
			correct[t.ID]++
		}
	}

	avg := func(counts []int, lo, hi int) float64 {
		sum := 0
		for _, c := range counts[lo:hi] {
			sum += c
		}
		return float64(sum) / float64(hi-lo) / runs
	}
	fmt.Println("inclusion probability      small machine   large machine   (want 1/6 ≈ 0.167 each)")
	fmt.Printf("naive merge:                    %.3f           %.3f    <- biased, as Section 4.2 predicts (1/4 vs 1/8)\n",
		avg(naive, 0, smallMachine), avg(naive, smallMachine, smallMachine+largeMachine))
	fmt.Printf("MR-SQE (unified-sampler):       %.3f           %.3f    <- unbiased\n",
		avg(correct, 0, smallMachine), avg(correct, smallMachine, smallMachine+largeMachine))
}
