// Package stratified implements the paper's distributed stratified-sampling
// algorithms on top of the MapReduce engine:
//
//   - MR-SQE (Section 4.2.2, Figure 2): each map task classifies its tuples
//     by stratum constraint and draws a simple random sample of every
//     stratum it holds, tagged with the size of the set it was drawn from
//     (map and combine fused into one scan, fused.go), and the reducer
//     applies the unified-sampler (Algorithm 1) to produce an unbiased final
//     sample.
//   - the naive variant (Section 4.2.1, Figure 1): the same scan with a
//     stage that forwards every matching tuple to the shuffle — the baseline
//     that shows what sampling inside the map task saves.
//   - MR-MQE (Section 5.1): the multi-query extension keyed by (Q_i, s_k)
//     pairs, answering a whole set of SSD queries in a single pass over R.
//   - the job of MR-CPS (Section 5.2.5) over derived strata — sampling by
//     stratum selection σ, and counting as sampling that draws nothing — as
//     the same scan (selection.go).
//
// Every job's split is a dataset.Block: a map task scans its own block, and
// classifies from the block's column mirror when it carries one (a resident
// population's, handed to Pass) or from its rows otherwise (the splits of
// RunSQE, RunMQE and the MR-CPS entry points, and any block decoded on a
// worker). Every job has one shape: it draws, shuffles and reduces
// references to rows of the run's blocks, each sample carrying N and its
// tuples' wire size for the shuffle byte counter, and each reducer output
// keeps its stratum's summed N beside the final sample; the entry points
// build the answer's tuples once, from the blocks' rows, after the run, and
// report each stratum's N as its size.
package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// Options configures a sampling run: what to draw, never what the map tasks
// read, which travels with each split (dataset.Block).
type Options struct {
	// Seed makes the run reproducible.
	Seed int64
	// Naive forwards every matching tuple to the shuffle and samples in
	// the reducer alone (Figure 1). The default (false) is the MR-SQE of
	// Figure 2, sampling inside each map task.
	Naive bool
	// Exclude removes individuals (by ID) from consideration before
	// sampling, e.g. the participants of an earlier survey campaign.
	Exclude map[int64]struct{}
}

// buildSQEJob constructs the MR-SQE job of the config's one query: MR-MQE's
// job with one query, its keys named by stratum alone — the name seeds a
// key's reduce stream, and an MR-SQE answer does not depend on what else a
// pass could have carried.
func buildSQEJob(cfg *jobConfig, schema *dataset.Schema) (*sampleJob, error) {
	if len(cfg.Queries) != 1 {
		return nil, fmt.Errorf("stratified: MR-SQE answers one query, got %d", len(cfg.Queries))
	}
	job, err := buildMQEJob(cfg, schema)
	if err != nil {
		return nil, err
	}
	job.Name = "mr-sqe:" + cfg.Queries[0].Name
	job.KeyString = func(k QSKey) string { return fmt.Sprintf("s%06d", k.Stratum) }
	return job, nil
}

// RunSQE answers a single SSD query over the distributed population and
// returns the answer plus the job's metrics.
//
// Precondition: every tuple's attributes lie in the schema's domains (the
// invariant Relation.Add and live.Population enforce; splits decoded on a
// worker come from such a population). The stratum scan reads attributes as
// int32 cells (predicate.Classifier.ClassifyColumns), so an out-of-domain
// value may land in a stratum it does not satisfy.
func RunSQE(c *mapreduce.Cluster, q *query.SSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (*query.Answer, mapreduce.Metrics, error) {
	answers, met, err := answer(c, sqeJob, []*query.SSD{q}, schema, dataset.Blocks(splits), opts)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	return answers[0], met, nil
}

// Pass answers a batch of SSD queries over a resident population's blocks
// in one MapReduce pass: MR-SQE when the batch holds one query, MR-MQE
// otherwise, so a lone query draws exactly what RunSQE draws over the same
// rows. A map task whose block carries its column mirror and size column
// classifies from the mirror and sums the drawn rows' sizes from the column;
// the rows are the answer either way. RunSQE's in-domain precondition
// applies.
func Pass(c *mapreduce.Cluster, queries []*query.SSD, schema *dataset.Schema, blocks []dataset.Block, opts Options) (query.MultiAnswer, mapreduce.Metrics, error) {
	job := mqeJob
	if len(queries) == 1 {
		job = sqeJob
	}
	return answer(c, job, queries, schema, blocks, opts)
}
