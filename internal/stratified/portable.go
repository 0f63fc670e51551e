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

// jobConfig is the config of the makers over the queries' own strata.
type jobConfig struct {
	Queries []*query.SSD    `json:"queries"`
	Fields  []dataset.Field `json:"fields"`
	Naive   bool            `json:"naive,omitempty"`
	Exclude []int64         `json:"exclude,omitempty"`

	// columns and sizes are Options.Columns and Options.Sizes: the
	// coordinator's resident mirrors, which do not travel.
	columns []dataset.Columns
	sizes   [][]int32
}

// selectionConfig is the config of the MR-CPS makers over derived strata
// (selection.go): the ordered stratum selections; for the sampling job,
// Freqs[v][j] — the sample size of selection j in vector v, 0 meaning v does
// not sample it — and Chosen[v], the IDs never offered to vector v (absent:
// none). A type of its own so that an MR-SQE / MR-MQE pass never pays for
// encoding fields it does not have.
type selectionConfig struct {
	jobConfig
	Selections [][]int   `json:"selections"`
	Freqs      [][]int   `json:"freqs,omitempty"`
	Chosen     [][]int64 `json:"chosen,omitempty"`
}

func (cfg *jobConfig) fields() []dataset.Field { return cfg.Fields }

// config renders the options and queries of a run as its job config, with
// the exclusion set in sorted order so that a job's config bytes — and with
// them worker-side job caching — don't depend on map iteration order.
func (o Options) config(schema *dataset.Schema, queries ...*query.SSD) *jobConfig {
	return &jobConfig{
		Queries: queries, Fields: schema.Fields(), Naive: o.Naive,
		Exclude: sortedExclude(o.Exclude), columns: o.Columns, sizes: o.Sizes,
	}
}

// portable is one job family: its maker name and the builder both sides use
// on a config of type C.
type portable[C any, K comparable, V any, O any] struct {
	maker string
	build func(*C, *dataset.Schema) (*mapreduce.Job[dataset.Tuple, K, V, O], error)
}

var (
	sqeJob          = register("mr-sqe", buildSQEJob)
	mqeJob          = register("mr-mqe", buildMQEJob)
	selectionSample = register("mr-selection-sample", buildSelectionSampleJob)
	selectionCount  = register("mr-selection-count", buildSelectionCountJob)
)

// register makes a family buildable from a TaskSpec's config bytes in every
// binary that links this package, coordinator and workers alike.
func register[C any, K comparable, V any, O any](maker string, build func(*C, *dataset.Schema) (*mapreduce.Job[dataset.Tuple, K, V, O], error)) portable[C, K, V, O] {
	mapreduce.RegisterJobMaker(maker, func(config []byte) (*mapreduce.Job[dataset.Tuple, K, V, O], error) {
		cfg := new(C)
		if err := json.Unmarshal(config, cfg); err != nil {
			return nil, fmt.Errorf("stratified: decoding job config: %w", err)
		}
		schema, err := dataset.NewSchema(any(cfg).(interface{ fields() []dataset.Field }).fields()...)
		if err != nil {
			return nil, fmt.Errorf("stratified: rebuilding schema: %w", err)
		}
		return build(cfg, schema)
	})
	return portable[C, K, V, O]{maker, build}
}

// run builds the job from cfg, attaches the (maker, config) pair that lets
// remote workers rebuild it — the config encoded only when the cluster has an
// executor to ship it — and runs it over the splits.
func (p portable[C, K, V, O]) run(c *mapreduce.Cluster, cfg *C, schema *dataset.Schema, splits []dataset.Split, seed int64) ([]O, mapreduce.Metrics, error) {
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
	res, err := mapreduce.Run(c, job, tupleSplits(splits))
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
