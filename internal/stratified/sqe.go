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
//   - the jobs of MR-CPS (Section 5.2.5) over derived strata — sampling and
//     counting by stratum selection σ — as the same scan (selection.go).
//
// The sampling jobs draw, shuffle and reduce references to rows of the run's
// splits, each sample carrying N and its tuples' wire size for the shuffle
// byte counter; RunSQE, RunMQE and SampleSelections build the answer's
// tuples once, from their splits, after the run.
package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// Options configures a sampling run.
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
	// Columns, when set, holds the resident column mirror of each split,
	// index-aligned with the splits of the run. Precondition: Columns[i] is
	// the mirror of splits[i] — dataset.ColumnsOf(splits[i]) kept current —
	// or holds no rows. Map tasks that execute in this process classify from
	// the mirror without reading the rows' attributes, so one that mirrors
	// other rows silently changes the answer; nothing checks its contents.
	// Every daemon passes its population's mirrors; one-shot callers pass
	// none, and map tasks on remote workers never receive them: both gather
	// the tested attributes from the rows. Inside a daemon the one length
	// mismatch the stage tolerates, by gathering, is the pruned task's: its
	// split is nil-ed in place and its mirror left alone.
	Columns []dataset.Columns
	// Sizes, when set, holds the wire-size column of each split, under
	// Columns' precondition and tolerance: Sizes[i][r] is
	// splits[i][r].ByteSize(). A map task in this process sums it for the
	// Bytes of the references it shuffles instead of sizing the drawn
	// tuples' varints.
	Sizes [][]int32
}

// buildSQEJob constructs the MR-SQE job of the config's one query: MR-MQE's
// job with one query, its keys named by stratum alone — the name seeds a
// key's reduce stream, and an MR-SQE answer does not depend on what else a
// pass could have carried.
func buildSQEJob(cfg *jobConfig, schema *dataset.Schema) (*mapreduce.Job[dataset.Tuple, QSKey, refSample, qsOut], error) {
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
	out, met, err := sqeJob.run(c, opts.config(schema, q), schema, splits, opts.Seed)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	ans := query.NewAnswer(len(q.Strata))
	if err := samples(out, splits, func(k QSKey, sample []dataset.Tuple) { ans.Strata[k.Stratum] = sample }); err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	return ans, met, nil
}

// tupleSplits converts typed dataset splits to the engine's input shape.
func tupleSplits(splits []dataset.Split) [][]dataset.Tuple {
	out := make([][]dataset.Tuple, len(splits))
	for i, s := range splits {
		out[i] = s
	}
	return out
}
