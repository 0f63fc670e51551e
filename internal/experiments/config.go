// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6) on the simulated substrate:
//
//   - Table 2   — survey cost of MR-CPS as a percentage of MR-MQE, per
//     query group (Small/Medium/Large).
//   - Figure 6  — percentage of individuals assigned to i surveys by MR-CPS.
//   - Figure 7  — running times per query group on clusters of 1, 5 and 10
//     slaves (virtual clock), plus the map/combine/reduce phase split.
//   - Figure 8  — time spent formulating and solving the LP.
//   - §6.2.2    — optimality analysis: residual fraction and the
//     C_LP ≤ C_IP ≤ C_A ordering.
//   - §6.2.1    — the uniform-synthetic-dataset comparison.
//
// Scale is configurable; the defaults are laptop-sized (the paper used a
// 100 GB dataset on 11 EC2 VMs — see DESIGN.md for the substitution notes).
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// Config scales an experiment run.
type Config struct {
	// PopulationSize is |R| (the paper's dataset holds >1M authors; the
	// default here is laptop-sized).
	PopulationSize int
	// SampleSizes are the per-SSD sample sizes; the paper uses 100, 1000
	// and 10000 (0.01%, 0.1% and 1% of the population).
	SampleSizes []int
	// Runs is how many times randomized measurements are repeated and
	// averaged (the paper averages 100 runs for costs, 10 for times).
	Runs int
	// Slaves is the cluster size used where the experiment doesn't sweep
	// it.
	Slaves int
	// Seed drives all randomness.
	Seed int64
	// Uniform switches the population to the no-correlation synthetic
	// dataset of Section 6.2.1.
	Uniform bool
	// Groups restricts which query groups run (default: all three).
	Groups []gen.GroupParams
}

// DefaultConfig returns a configuration that finishes in seconds while
// preserving the paper's proportions (sample ≈ 0.1%–1% of the population).
func DefaultConfig() Config {
	return Config{
		PopulationSize: 20000,
		SampleSizes:    []int{100, 1000},
		Runs:           10,
		Slaves:         10,
		Seed:           1,
	}
}

func (c Config) groups() []gen.GroupParams {
	if len(c.Groups) > 0 {
		return c.Groups
	}
	return gen.Groups()
}

func (c Config) population() *dataset.Relation {
	if c.Uniform {
		return gen.UniformPopulation(c.PopulationSize, c.Seed)
	}
	return gen.Population(c.PopulationSize, c.Seed)
}

// workload bundles everything one query-group experiment needs.
type workload struct {
	group   gen.GroupParams
	mssd    *query.MSSD
	schema  *dataset.Schema
	splits  []dataset.Split
	cluster *mapreduce.Cluster
}

// buildWorkload generates the population once (per config) and the group's
// queries and costs. sampleSize is the per-SSD sample size.
func buildWorkload(cfg Config, pop *dataset.Relation, group gen.GroupParams, sampleSize int, slaves int) (*workload, error) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(group.N)*1000 + int64(sampleSize)))
	queries, err := gen.QueryGroup(group, pop, sampleSize, rng)
	if err != nil {
		return nil, err
	}
	costs := gen.DefaultPenaltyTable(group.N, rng)
	// The data layout is fixed (HDFS-style blocks), independent of the
	// cluster size the job runs on — 20 splits covers the paper's largest
	// configuration (10 slaves × 2 slots).
	splits, err := dataset.Partition(pop, 20, dataset.Contiguous, nil)
	if err != nil {
		return nil, err
	}
	return &workload{
		group:   group,
		mssd:    query.NewMSSD(costs, queries...),
		schema:  pop.Schema(),
		splits:  splits,
		cluster: mapreduce.NewCluster(slaves),
	}, nil
}

// runMQE runs MR-MQE on the workload.
func (w *workload) runMQE(seed int64) (query.MultiAnswer, mapreduce.Metrics, error) {
	return stratified.RunMQE(w.cluster, w.mssd.Queries, w.schema, w.splits, stratified.Options{Seed: seed})
}

// runCPS runs MR-CPS, validation included, on the workload.
func (w *workload) runCPS(seed int64, solve cps.SolveOptions) (*cps.Result, error) {
	return cps.Run(w.cluster, w.mssd, w.schema, w.splits, cps.Options{Seed: seed, Solve: solve})
}

// defaultSolve is the MR-CPS production configuration: per-σ decomposed LP.
func defaultSolve() cps.SolveOptions { return cps.SolveOptions{} }

func (c Config) validate() error {
	if c.PopulationSize < 1 {
		return fmt.Errorf("experiments: population size %d", c.PopulationSize)
	}
	if len(c.SampleSizes) == 0 {
		return fmt.Errorf("experiments: no sample sizes")
	}
	if c.Runs < 1 {
		return fmt.Errorf("experiments: runs %d", c.Runs)
	}
	if c.Slaves < 1 {
		return fmt.Errorf("experiments: slaves %d", c.Slaves)
	}
	return nil
}
