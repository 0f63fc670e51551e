package stratified

import (
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// The paper's jobs travel to worker processes as their config — JSON, with
// stratum conditions in the textual formula syntax — which names the job to
// build and carries everything needed to rebuild it exactly. The coordinator
// (run) and the worker (Inproc) construct a job with the same builder,
// buildJob, from the same config, so a task executes identically wherever it
// lands.

// The jobs a config can name.
const (
	jobSQE       = "sqe"       // MR-SQE (sqe.go)
	jobMQE       = "mqe"       // MR-MQE (mqe.go)
	jobSelection = "selection" // MR-CPS's sampling over derived strata (selection.go)
)

// jobConfig is the config of every job: which job it is, the queries, the
// schema's fields, the naive switch and the sorted exclusion set; for the
// MR-CPS job over derived strata (selection.go) also the ordered stratum
// selections, Freqs[v][j] — the sample size of selection j in vector v, 0
// meaning v does not sample it, no Freqs meaning the limits job that counts
// every selection — and Chosen[v], the IDs never offered to vector v
// (absent: none). The derived fields are omitted when empty, so an MR-SQE /
// MR-MQE config encodes only what it has.
type jobConfig struct {
	Job        string          `json:"job"`
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

// Inproc is the executor a worker process runs every task spec through:
// buildJob over the config the coordinator shipped.
var Inproc = mapreduce.NewInproc(func(config []byte) (*sampleJob, error) {
	cfg := new(jobConfig)
	if err := json.Unmarshal(config, cfg); err != nil {
		return nil, fmt.Errorf("stratified: decoding job config: %w", err)
	}
	schema, err := dataset.NewSchema(cfg.Fields...)
	if err != nil {
		return nil, fmt.Errorf("stratified: rebuilding schema: %w", err)
	}
	return buildJob(cfg, schema)
})

// buildJob builds the job the config names, codecs included.
func buildJob(cfg *jobConfig, schema *dataset.Schema) (*sampleJob, error) {
	switch cfg.Job {
	case jobSQE:
		return buildSQEJob(cfg, schema)
	case jobMQE:
		return buildMQEJob(cfg, schema)
	case jobSelection:
		return buildSelectionSampleJob(cfg, schema)
	}
	return nil, fmt.Errorf("stratified: no job %q to build", cfg.Job)
}

// run builds the job cfg names and runs it over the blocks, one map task
// each, its config encoded only when the cluster has an executor to ship it
// to.
func run(c *mapreduce.Cluster, cfg *jobConfig, schema *dataset.Schema, blocks []dataset.Block, seed int64) ([]qsOut, mapreduce.Metrics, error) {
	job, err := buildJob(cfg, schema)
	if err != nil {
		return nil, mapreduce.Metrics{}, err
	}
	job.Seed = seed
	if c.Executor != nil {
		if job.Config, err = json.Marshal(cfg); err != nil {
			return nil, mapreduce.Metrics{}, fmt.Errorf("stratified: encoding %s job config: %w", cfg.Job, err)
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
