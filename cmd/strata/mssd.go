package main

import (
	"flag"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/query"
)

func groupByName(name string) (gen.GroupParams, error) {
	for _, g := range gen.Groups() {
		if g.Name == name {
			return g, nil
		}
	}
	return gen.GroupParams{}, fmt.Errorf("unknown query group %q (want Small, Medium or Large)", name)
}

func cmdMSSD(args []string) error {
	fs := flag.NewFlagSet("mssd", flag.ExitOnError)
	n := fs.Int("n", 20000, "population size")
	seed := fs.Int64("seed", 1, "random seed")
	slaves := fs.Int("slaves", 10, "cluster slaves")
	groupName := fs.String("group", "Small", "query group: Small, Medium or Large")
	sample := fs.Int("sample", 100, "per-SSD sample size")
	runs := fs.Int("runs", 5, "repetitions to average")
	integer := fs.Bool("ip", false, "solve the exact integer program instead of the LP relaxation")
	explain := fs.Bool("explain", false, "print the solved sharing plan of the last run or wave")
	waves := fs.Int("waves", 0, "instead of repeated runs, run this many campaign waves with cross-wave exclusion")
	subUsage(fs, `strata mssd [-n 20000] [-group Small] [-sample 100] [-runs 5] [-ip] [-explain] [-waves 3]`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	group, err := groupByName(*groupName)
	if err != nil {
		return err
	}

	pop := gen.Population(*n, *seed)
	rng := rand.New(rand.NewSource(*seed + 99))
	queries, err := gen.QueryGroup(group, pop, *sample, rng)
	if err != nil {
		return err
	}
	costs := gen.DefaultPenaltyTable(group.N, rng)
	m := query.NewMSSD(costs, queries...)
	splits, err := dataset.Partition(pop, 20, dataset.Contiguous, nil)
	if err != nil {
		return err
	}
	cluster := newCluster(*slaves)

	fmt.Printf("group %s: %d SSDs × %d strata, sample %d each, population %d, %d slaves\n",
		group.Name, group.N, group.StrataPerSSD(), *sample, *n, *slaves)
	fmt.Printf("penalised pairs: %d of %d\n\n", len(costs.Penalties), group.N*(group.N-1)/2)

	solve := cps.SolveOptions{Integer: *integer}
	if *waves > 0 {
		camp := cps.NewCampaign(cluster, pop.Schema(), splits)
		for w := 0; w < *waves; w++ {
			res, err := camp.RunWave(m, cps.Options{Seed: *seed + int64(w)*7919, Solve: solve})
			if err != nil {
				return err
			}
			recordMetrics(res.Metrics)
			fmt.Printf("wave %d: cost $%.0f, %d unique individuals (campaign total %d)\n",
				w+1, res.Answers.Cost(costs), res.Answers.UniqueIndividuals(), camp.TotalSurveyed())
		}
		if *explain {
			printPlan("last wave", camp.Waves[len(camp.Waves)-1])
		}
		return nil
	}

	var mqeCost, cpsCost float64
	var simTotal time.Duration
	var lpTotal time.Duration
	hist := make([]float64, group.N+1)
	var histTotal float64
	var last *cps.Result
	for run := 0; run < *runs; run++ {
		res, err := cps.Run(cluster, m, pop.Schema(), splits, cps.Options{
			Seed:  *seed + int64(run)*7919,
			Solve: solve,
		})
		if err != nil {
			return err
		}
		last = res
		recordMetrics(res.Metrics)
		mqeCost += res.Initial.Cost(costs)
		cpsCost += res.Answers.Cost(costs)
		simTotal += res.Metrics.SimulatedTotal()
		lpTotal += res.LP.FormulateTime + res.LP.SolveTime
		for i, c := range res.Answers.SharingHistogram() {
			hist[i] += float64(c)
			if i >= 1 {
				histTotal += float64(c)
			}
		}
	}
	k := float64(*runs)
	fmt.Printf("mean MR-MQE cost: $%.0f\n", mqeCost/k)
	fmt.Printf("mean MR-CPS cost: $%.0f  (%.0f%% of MQE)\n", cpsCost/k, 100*cpsCost/mqeCost)
	fmt.Printf("simulated pipeline time: %v   LP time: %v\n",
		(simTotal / time.Duration(*runs)).Round(time.Millisecond),
		(lpTotal / time.Duration(*runs)).Round(time.Microsecond))
	fmt.Printf("sharing profile (%% of individuals in i surveys):\n")
	for i := 1; i <= group.N; i++ {
		fmt.Printf("  i=%d: %5.1f%%\n", i, 100*hist[i]/histTotal)
	}
	if *explain && last != nil {
		printPlan("last run", last)
	}
	return nil
}

// printPlan prints the solved sharing plan of one MR-CPS result (-explain).
func printPlan(of string, res *cps.Result) {
	fmt.Printf("\nsharing plan of the %s:\n", of)
	for _, line := range res.Plan.Describe(res.Stats) {
		fmt.Println("  " + line)
	}
}
