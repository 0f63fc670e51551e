// Auditdemo: the sampling-quality auditor end to end, in-process.
//
// The audit layer grades what the paper promises statistically — required
// frequencies met per stratum, unbiased per-member inclusion (Algorithm 1's
// contract, tested by repeated-run chi-square), CPS cost at the LP lower
// bound, and an estimator that actually gains precision from stratifying.
// This program runs all four audits over a generated author population and
// renders the combined quality scorecard.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"

	"repro/internal/audit"
	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
)

func main() {
	pop := gen.Population(8000, 1)
	splits, err := dataset.Partition(pop, 8, dataset.Contiguous, nil)
	if err != nil {
		log.Fatal(err)
	}

	cluster := mapreduce.NewCluster(4)

	q := query.NewSSD("prolific",
		query.Stratum{Cond: predicate.MustParse("nop >= 100"), Freq: 8},
		query.Stratum{Cond: predicate.MustParse("nop < 100"), Freq: 12},
	)

	// Bias audit: 25 MR-SQE runs with stepped seeds, chi-square over the
	// per-member inclusion counts of each stratum.
	bias, _, err := audit.BiasAuditSQE(cluster, q, pop.Schema(), splits, stratified.Options{Seed: 1}, 25)
	if err != nil {
		log.Fatal(err)
	}

	// Fill + estimator audits on one representative run.
	ans, _, err := stratified.RunSQE(cluster, q, pop.Schema(), splits, stratified.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	pops, err := audit.StratumPopulations(q, pop.Schema(), splits)
	if err != nil {
		log.Fatal(err)
	}
	fill, err := audit.AuditFill(q, ans, pops)
	if err != nil {
		log.Fatal(err)
	}
	est, err := audit.AuditEstimator(ans, pop.Schema(), "nop")
	if err != nil {
		log.Fatal(err)
	}

	// CPS accounting: one MR-CPS run over a generated 3-survey group.
	rng := rand.New(rand.NewSource(100))
	queries, err := gen.QueryGroup(gen.Groups()[0], pop, 50, rng)
	if err != nil {
		log.Fatal(err)
	}
	m := query.NewMSSD(gen.DefaultPenaltyTable(len(queries), rng), queries...)
	res, err := cps.Run(cluster, m, pop.Schema(), splits, cps.Options{Seed: 1})
	if err != nil {
		log.Fatal(err)
	}

	rep := &audit.Report{
		Fill:      fill,
		Bias:      bias,
		CPS:       audit.AuditCPS(m, res),
		Estimator: est,
	}
	rep.Render(os.Stdout)

	fmt.Printf("\nverdict: passed=%v (bias alpha 1e-4)\n", rep.Passed(1e-4))
}
