package stratified

import (
	"fmt"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/sampling"
)

// QSKey identifies a stratum across the query set: the (Q_i, s_k) mapping key
// of MR-MQE, and of every sampling job here — MR-SQE is query 0 alone, the
// MR-CPS jobs key (vector, selection). Both indexes are 0-based.
type QSKey struct {
	Query   int
	Stratum int
}

// String renders the key as "Q1/s2" (1-based, like the paper's notation).
func (k QSKey) String() string { return fmt.Sprintf("Q%d/s%d", k.Query+1, k.Stratum+1) }

// rowRef addresses one row of a run's input, blocks[Split].Rows[Row]. The
// sampling jobs draw, shuffle and reduce these in place of the tuples; the
// answer's tuples are built once, from the reduce output (samples).
type rowRef struct{ Split, Row int32 }

// refSample is the value a sampling job shuffles: the paper's (S̄, N̄) with S̄
// as row references, plus Bytes, the wire size of the tuples S̄ stands for
// (Σ Tuple.ByteSize). The shuffle byte counter reads it as the tuple-shaped
// value's size, so Metrics.ShuffleBytes and Figure 7 count what shipping the
// tuples would cost, and sizing a value is one field read.
type refSample struct {
	Rows  []rowRef
	N     int64
	Bytes int64
}

// ByteSize is the value's size to the shuffle counter: 8 bytes for N plus
// the tuples'.
func (s refSample) ByteSize() int { return 8 + int(s.Bytes) }

// qsOut is one reducer output of a sampling job: the final sample of one
// stratum of one query, as references into the run's splits, and N, the
// stratum's size — the map tasks' N summed, as the unified sampler weighs
// them (Algorithm 1).
type qsOut struct {
	Key  QSKey
	Rows []rowRef
	N    int64
}

// sampleJob is the shape of every job this package runs: blocks in, (key,
// sample) pairs shuffled, one (sample, N) per key out.
type sampleJob = mapreduce.Job[dataset.Block, QSKey, refSample, qsOut]

// qsSamplingJob is the sampling job keyed by (vector, class): the fused stage
// over the scan's class vectors, and the unified-sampler drawing
// freqs[vector][class] references from the map tasks' samples of a key —
// the same indexes it would draw over tuples, its randomness being blind to
// what it draws — beside the key's summed N.
func qsSamplingJob(name string, scan splitScan, freqs [][]int) *sampleJob {
	return &sampleJob{
		Name:   name,
		Mapper: &fusedStage{splitScan: scan, freqs: freqs},
		Reducer: mapreduce.ReducerFunc[QSKey, refSample, qsOut](
			func(ctx *mapreduce.TaskContext, k QSKey, vs []refSample, emit func(qsOut)) {
				parts := make([]sampling.Weighted[rowRef], len(vs))
				for i, v := range vs {
					parts[i] = sampling.Weighted[rowRef]{Sample: v.Rows, N: v.N}
				}
				emit(qsOut{Key: k, Rows: sampling.UnifiedSample(parts, freqs[k.Query][k.Stratum], ctx.Rand), N: sampling.TotalN(parts)})
			}),
		KeyString: func(k QSKey) string { return fmt.Sprintf("q%04d/s%06d", k.Query, k.Stratum) },
	}
}

// samples builds the answers of a job with frequency table freqs from its
// outputs and the run's blocks — one per vector v, whose Strata[k] and
// Sizes[k] are the sample and N of key (v, k): the one place a pass
// materialises its answer, under whatever lock keeps the blocks still. A key
// no output names reads (nil, 0). An output may come from a remote reducer,
// so a key outside the table, a reference outside the blocks, or an N below
// zero or below the sample's size is an error.
func samples(out []qsOut, blocks []dataset.Block, freqs [][]int) (query.MultiAnswer, error) {
	answers := make(query.MultiAnswer, len(freqs))
	for v, f := range freqs {
		answers[v] = &query.Answer{Strata: make([][]dataset.Tuple, len(f)), Sizes: make([]int64, len(f))}
	}
	for _, o := range out {
		v, k := o.Key.Query, o.Key.Stratum
		if v < 0 || v >= len(freqs) || k < 0 || k >= len(freqs[v]) {
			return nil, fmt.Errorf("stratified: a reduce output names %v, a key the job does not have", o.Key)
		}
		if o.N < int64(len(o.Rows)) {
			return nil, fmt.Errorf("stratified: the reduce output of %v draws %d rows from a stratum of %d", o.Key, len(o.Rows), o.N)
		}
		ans := answers[v]
		if len(o.Rows) > 0 {
			ans.Strata[k] = make([]dataset.Tuple, len(o.Rows))
		}
		for i, r := range o.Rows {
			if r.Split < 0 || int(r.Split) >= len(blocks) || r.Row < 0 || int(r.Row) >= blocks[r.Split].Len() {
				return nil, fmt.Errorf("stratified: the reduce output of %v names row %d of split %d, outside the run's %d splits",
					o.Key, r.Row, r.Split, len(blocks))
			}
			ans.Strata[k][i] = blocks[r.Split].Rows[r.Row]
		}
		ans.Sizes[k] = o.N
	}
	return answers, nil
}

// buildMQEJob constructs the MR-MQE job of the config's query set; a naive
// config swaps the forwarding stage in for the sampling one.
func buildMQEJob(cfg *jobConfig, schema *dataset.Schema) (*sampleJob, error) {
	classes, err := classifiers(cfg.Queries, schema)
	if err != nil {
		return nil, err
	}
	scan := newSplitScan(classes, nil, excludeSet(cfg.Exclude))
	job := qsSamplingJob("mr-mqe", scan, stratumFreqs(cfg.Queries))
	if cfg.Naive {
		job.Mapper = &naiveStage{scan}
	}
	return job, nil
}

// RunMQE answers a set of SSD queries in a single MapReduce pass (Algorithm
// MR-MQE): a tuple counts towards the key (Q_i, s_k) of every query whose
// stratum it satisfies; the map-side draw and the reduce are as in MR-SQE.
// It returns one answer per query, aligned with the queries slice. RunSQE's
// in-domain precondition on the splits applies.
func RunMQE(c *mapreduce.Cluster, queries []*query.SSD, schema *dataset.Schema, splits []dataset.Split, opts Options) (query.MultiAnswer, mapreduce.Metrics, error) {
	return answer(c, mqeJob, queries, schema, dataset.Blocks(splits), opts)
}

// answer runs an MR-SQE or MR-MQE job over the blocks and builds one answer
// per query, aligned with the queries slice, each stratum's size beside its
// sample (0 for a stratum no split matched).
func answer(c *mapreduce.Cluster, job portable, queries []*query.SSD, schema *dataset.Schema, blocks []dataset.Block, opts Options) (query.MultiAnswer, mapreduce.Metrics, error) {
	out, met, err := job.run(c, opts.config(schema, queries...), schema, blocks, opts.Seed)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	answers, err := samples(out, blocks, stratumFreqs(queries))
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	return answers, met, nil
}
