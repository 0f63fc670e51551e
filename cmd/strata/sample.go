package main

import (
	"flag"
	"fmt"
	"math/rand"

	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/stratified"
)

// parseSSD parses "cond : freq ; cond : freq ; ..." into an SSD query (the
// shared parser lives in internal/query so the serve daemon accepts the same
// syntax).
func parseSSD(name, spec string) (*query.SSD, error) {
	return query.ParseSSD(name, spec)
}

func cmdSample(args []string) error {
	fs := flag.NewFlagSet("sample", flag.ExitOnError)
	n := fs.Int("n", 10000, "population size")
	seed := fs.Int64("seed", 1, "random seed")
	slaves := fs.Int("slaves", 4, "cluster slaves")
	numSplits := fs.Int("splits", 0, "partition splits (0 = max(2*slaves, 2*GOMAXPROCS); must match a daemon's -splits for identical answers)")
	naive := fs.Bool("naive", false, "forward every matching tuple to the shuffle (Figure 1) instead of sampling inside each map task (Figure 2)")
	layout := fs.String("layout", "contiguous", "data layout across machines: round-robin, contiguous, skewed, shuffled-contiguous")
	spec := fs.String("query", "nop >= 100 : 5 ; nop < 100 : 10",
		"SSD query: \"cond : freq ; cond : freq ; ...\"")
	showTuples := fs.Bool("print", true, "print the sampled individuals")
	estimateAttr := fs.String("estimate", "", "also estimate the population mean of this attribute from the sample")
	subUsage(fs, `strata sample [-n 10000] -query "cond : freq ; ..." [-slaves 4] [-layout contiguous] [-naive] [-estimate attr]`)
	if err := fs.Parse(args); err != nil {
		return err
	}

	q, err := parseSSD("Q", *spec)
	if err != nil {
		return err
	}
	pop := gen.Population(*n, *seed)
	if err := q.Validate(pop.Schema()); err != nil {
		return err
	}
	strategy, err := dataset.ParsePartitioning(*layout)
	if err != nil {
		return err
	}
	k := *numSplits
	if k <= 0 {
		k = dataset.DefaultSplits(*slaves)
	}
	splits, err := dataset.Partition(pop, k, strategy, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	cluster := newCluster(*slaves)
	ans, met, err := stratified.RunSQE(cluster, q, pop.Schema(), splits, stratified.Options{
		Seed:  *seed,
		Naive: *naive,
	})
	if err != nil {
		return err
	}
	recordMetrics(met)
	for k, s := range q.Strata {
		fmt.Printf("stratum %d (%s, f=%d): %d individuals\n", k+1, s.Cond, s.Freq, len(ans.Strata[k]))
		if *showTuples {
			for _, t := range ans.Strata[k] {
				fmt.Printf("  %s\n", t)
			}
		}
	}
	fmt.Printf("\n%s\n", met)

	if *estimateAttr != "" {
		sums, err := estimate.FromAnswer(ans, q, pop, *estimateAttr)
		if err != nil {
			return err
		}
		stratMean, err := estimate.StratifiedMean(sums)
		if err != nil {
			return err
		}
		fmt.Printf("stratified estimate of mean %s: %s\n", *estimateAttr, stratMean)
	}
	return nil
}
