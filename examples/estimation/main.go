// Estimation: the paper's Example 1 in numbers. A market-research company
// wants the average activity level of a network's users. A rare subgroup
// (very prolific authors, <1% of the population) behaves completely
// differently, so a simple random sample either misses it or is dominated by
// its variance. A stratified design with a guaranteed quota for the subgroup
// gives the same precision from a much smaller sample — that is why the
// sample "can be as small as possible, yet representative".
//
// The example also shows Neyman allocation: using a pilot sample's
// per-stratum variances to split the interview budget optimally.
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/sampling"
	"repro/internal/stratified"
)

func main() {
	pop := gen.Population(80000, 21)
	schema := pop.Schema()
	ndccIdx, _ := schema.Index("ndcc")

	// Ground truth for reference.
	var truth float64
	for i := 0; i < pop.Len(); i++ {
		truth += float64(pop.Tuple(i).Attrs[ndccIdx])
	}
	truth /= float64(pop.Len())
	fmt.Printf("population: %d authors; true mean coauthor links per author: %.2f\n\n", pop.Len(), truth)

	// Stratify by productivity; prolific authors are rare but dominate
	// the coauthor-link counts.
	template := []query.Stratum{
		{Cond: predicate.MustParse("nop >= 50")},
		{Cond: predicate.MustParse("nop >= 5 and nop < 50")},
		{Cond: predicate.MustParse("nop < 5")},
	}
	const budget = 120

	// Pilot pass: small proportional sample to learn per-stratum spreads.
	preds := make([]predicate.Pred, len(template))
	popSizes := make([]int64, len(template))
	for k, s := range template {
		preds[k] = predicate.MustCompile(s.Cond, schema)
		popSizes[k] = int64(pop.Count(preds[k]))
		fmt.Printf("stratum %d (%s): %d authors\n", k+1, s.Cond, popSizes[k])
	}
	pilotAlloc := estimate.Proportional(popSizes, 60)
	pilot, err := pilotAlloc.ToSSD("pilot", template)
	if err != nil {
		log.Fatal(err)
	}
	splits, err := dataset.Partition(pop, 8, dataset.Contiguous, nil)
	if err != nil {
		log.Fatal(err)
	}
	cluster := mapreduce.NewCluster(4)
	pilotAns, _, err := stratified.RunSQE(cluster, pilot, schema, splits, stratified.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	pilotSums, err := estimate.FromAnswer(pilotAns, schema, "ndcc")
	if err != nil {
		log.Fatal(err)
	}
	stdevs := make([]float64, len(pilotSums))
	for k, s := range pilotSums {
		stdevs[k] = stddev(s.Values)
	}
	fmt.Printf("\npilot stdevs per stratum: %.0f / %.0f / %.0f → Neyman allocation of %d interviews: %v\n",
		stdevs[0], stdevs[1], stdevs[2], budget, estimate.Neyman(popSizes, stdevs, budget))

	// Main survey with the Neyman allocation.
	mainSSD, err := estimate.Neyman(popSizes, stdevs, budget).ToSSD("main", template)
	if err != nil {
		log.Fatal(err)
	}
	ans, _, err := stratified.RunSQE(cluster, mainSSD, schema, splits, stratified.Options{Seed: 2})
	if err != nil {
		log.Fatal(err)
	}
	sums, err := estimate.FromAnswer(ans, schema, "ndcc")
	if err != nil {
		log.Fatal(err)
	}
	stratMean, err := estimate.StratifiedMean(sums)
	if err != nil {
		log.Fatal(err)
	}

	// Simple random sample of the same size, for comparison.
	rng := rand.New(rand.NewSource(3))
	srs := sampling.SRS(pop.Tuples(), budget, rng)
	values := make([]float64, len(srs))
	for i, t := range srs {
		values[i] = float64(t.Attrs[ndccIdx])
	}
	srsMean, err := estimate.SRSMean(values, int64(pop.Len()))
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("\nstratified estimate (n=%d): %s\n", budget, stratMean)
	fmt.Printf("SRS estimate        (n=%d): %s\n", budget, srsMean)
	fmt.Printf("design effect (var ratio): %.2f — below 1 means the stratified design needs\n",
		estimate.DesignEffect(stratMean, srsMean))
	fmt.Println("proportionally fewer interviews for the same precision.")
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}
