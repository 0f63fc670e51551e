package stratified

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// The paper's jobs travel to worker processes as (maker, config) pairs: the
// maker name selects one of the builders registered here, and the config —
// JSON, with stratum conditions in the textual formula syntax — carries
// everything needed to rebuild the exact same job on the other side. The
// coordinator (RunSQE & co., through portable.run) and the worker (through
// mapreduce.ExecuteTask) construct a job with the same builder from the same
// config, so a task executes identically wherever it lands.

// jobConfig is the config of every maker: the queries, the schema's fields,
// the naive switch and the sorted exclusion set; for the MR-CPS maker over
// derived strata (selection.go) also the ordered stratum selections,
// Freqs[v][j] — the sample size of selection j in vector v, 0 meaning v does
// not sample it, no Freqs meaning the limits job that counts every
// selection — and Chosen[v], the IDs never offered to vector v (absent:
// none). The derived fields are omitted when empty, so an MR-SQE / MR-MQE
// config encodes only what it has.
type jobConfig struct {
	Queries    []*query.SSD    `json:"queries"`
	Fields     []dataset.Field `json:"fields"`
	Naive      bool            `json:"naive,omitempty"`
	Exclude    []int64         `json:"exclude,omitempty"`
	Selections [][]int         `json:"selections,omitempty"`
	Freqs      [][]int         `json:"freqs,omitempty"`
	Chosen     [][]int64       `json:"chosen,omitempty"`
}

// config renders the options and queries of a run as its job config, with
// the exclusion set in sorted order so that a job's config bytes — and with
// them worker-side job caching — don't depend on map iteration order.
func (o Options) config(schema *dataset.Schema, queries ...*query.SSD) *jobConfig {
	return &jobConfig{
		Queries: queries, Fields: schema.Fields(), Naive: o.Naive,
		Exclude: sortedExclude(o.Exclude),
	}
}

// portable is one job family: its maker name and the builder both sides use
// on its config.
type portable struct {
	maker string
	build func(*jobConfig, *dataset.Schema) (*sampleJob, error)
}

var (
	sqeJob          = register("mr-sqe", buildSQEJob)
	mqeJob          = register("mr-mqe", buildMQEJob)
	selectionSample = register("mr-selection-sample", buildSelectionSampleJob)
)

// register makes a family buildable from a TaskSpec's config bytes in every
// binary that links this package, coordinator and workers alike.
func register(maker string, build func(*jobConfig, *dataset.Schema) (*sampleJob, error)) portable {
	mapreduce.RegisterJobMaker(maker, func(config []byte) (*sampleJob, error) {
		cfg := new(jobConfig)
		if err := json.Unmarshal(config, cfg); err != nil {
			return nil, fmt.Errorf("stratified: decoding job config: %w", err)
		}
		schema, err := dataset.NewSchema(cfg.Fields...)
		if err != nil {
			return nil, fmt.Errorf("stratified: rebuilding schema: %w", err)
		}
		return build(cfg, schema)
	})
	return portable{maker, build}
}

// run builds the job from cfg, attaches the (maker, config) pair that lets
// remote workers rebuild it — the config encoded only when the cluster has an
// executor to ship it — and runs it over the blocks, one map task each.
func (p portable) run(c *mapreduce.Cluster, cfg *jobConfig, schema *dataset.Schema, blocks []dataset.Block, seed int64) ([]qsOut, mapreduce.Metrics, error) {
	job, err := p.build(cfg, schema)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	job.Seed, job.Maker = seed, p.maker
	if c.Executor != nil {
		if job.Config, err = json.Marshal(cfg); err != nil {
			return nil, mapreduce.Metrics{}, fmt.Errorf("stratified: encoding %s job config: %w", p.maker, err)
		}
	}
	res, err := mapreduce.Run(c, job, blocks)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	return res.Output, res.Metrics, nil
}

// sortedExclude renders an ID set in ascending order.
func sortedExclude(set map[int64]struct{}) []int64 {
	if len(set) == 0 {
		return nil
	}
	ids := make([]int64, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func excludeSet(ids []int64) map[int64]struct{} {
	if len(ids) == 0 {
		return nil
	}
	set := make(map[int64]struct{}, len(ids))
	for _, id := range ids {
		set[id] = struct{}{}
	}
	return set
}
