package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/audit"
	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/query"
	"repro/internal/stratified"
)

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("audit", flag.ExitOnError)
	n := fs.Int("n", 10000, "population size")
	seed := fs.Int64("seed", 1, "random seed")
	slaves := fs.Int("slaves", 4, "cluster slaves")
	layout := fs.String("layout", "contiguous", "data layout across machines: round-robin, contiguous, skewed, shuffled-contiguous")
	spec := fs.String("query", "nop >= 100 : 5 ; nop < 100 : 10",
		"SSD query to audit: \"cond : freq ; cond : freq ; ...\"")
	runs := fs.Int("runs", 30, "repeated runs for the inclusion-uniformity bias audit")
	alpha := fs.Float64("alpha", 1e-4, "bias significance threshold: fail below this p-value")
	estimateAttr := fs.String("estimate", "nop", "grade estimator health for this attribute (\"\" disables)")
	withCPS := fs.Bool("cps", false, "also audit an MR-CPS run over a generated query group")
	groupName := fs.String("group", "Small", "query group for -cps: Small, Medium or Large")
	sample := fs.Int("sample", 100, "per-SSD sample size for -cps")
	jsonOut := fs.Bool("json", false, "emit the report as JSON instead of the scorecard")
	subUsage(fs, `strata audit [-n 10000] -query "cond : freq ; ..." [-runs 30] [-alpha 1e-4] [-estimate attr] [-cps [-group Small]] [-json]`)
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
	splits, err := dataset.Partition(pop, dataset.DefaultSplits(*slaves), strategy, rand.New(rand.NewSource(*seed)))
	if err != nil {
		return err
	}
	cluster := newCluster(*slaves)

	pops, err := audit.StratumPopulations(q, pop.Schema(), splits)
	if err != nil {
		return err
	}
	bias, met, err := audit.BiasAuditSQE(cluster, q, pop.Schema(), splits, stratified.Options{Seed: *seed}, *runs)
	if err != nil {
		return err
	}
	recordMetrics(met)
	// One representative run (the bias audit's first seed) for the fill and
	// estimator sections.
	ans, _, err := stratified.RunSQE(cluster, q, pop.Schema(), splits, stratified.Options{Seed: *seed})
	if err != nil {
		return err
	}
	fill, err := audit.AuditFill(q, ans, pops)
	if err != nil {
		return err
	}
	rep := &audit.Report{Fill: fill, Bias: bias}
	if *estimateAttr != "" {
		est, err := audit.AuditEstimator(ans, pop.Schema(), *estimateAttr)
		if err != nil {
			return err
		}
		rep.Estimator = est
	}

	if *withCPS {
		group, err := groupByName(*groupName)
		if err != nil {
			return err
		}
		rng := rand.New(rand.NewSource(*seed + 99))
		queries, err := gen.QueryGroup(group, pop, *sample, rng)
		if err != nil {
			return err
		}
		m := query.NewMSSD(gen.DefaultPenaltyTable(group.N, rng), queries...)
		res, err := cps.Run(cluster, m, pop.Schema(), splits, cps.Options{Seed: *seed})
		if err != nil {
			return err
		}
		recordMetrics(res.Metrics)
		rep.CPS = audit.AuditCPS(m, res)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			return err
		}
	} else {
		rep.Render(os.Stdout)
	}
	if !rep.Passed(*alpha) {
		return fmt.Errorf("audit FAILED (alpha %g): fill or bias thresholds violated", *alpha)
	}
	fmt.Printf("\naudit PASSED (bias alpha %g, %d runs)\n", *alpha, *runs)
	return nil
}
