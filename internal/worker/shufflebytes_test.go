package worker_test

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
	"repro/internal/worker"
)

// TestShuffleBytesAcrossBackends pins the shuffle byte counter of every
// sampling job — MR-SQE, MR-MQE, naive MR-SQE and an MR-CPS selection
// sample — at the tuple-shaped count: a shuffled value weighs 8 bytes for its
// key, 8 for N and its sampled tuples' Tuple.ByteSize, whatever it carries on
// the wire. ShuffleBytes and BucketBytes are the same in process over
// resident blocks (mirror and size column), in process over the rows alone
// and on tcp workers, and equal the counts pinned below (what the jobs reported when
// they still shuffled tuples). Members carry names of varying length, so a
// miscounted size would move the total.
func TestShuffleBytesAcrossBackends(t *testing.T) {
	r := dataset.NewRelation(testSchema())
	for id := int64(0); id < 900; id++ {
		r.MustAdd(dataset.Tuple{ID: id * 37, Name: fmt.Sprintf("m%d", id*id%997), Attrs: []int64{id % 2, id * 7 % 1001}})
	}
	splits, err := dataset.Partition(r, 6, dataset.Skewed, nil)
	if err != nil {
		t.Fatal(err)
	}
	queries := []*query.SSD{testQuery(), query.NewSSD("income",
		query.Stratum{Cond: predicate.MustParse("income < 300"), Freq: 11},
		query.Stratum{Cond: predicate.MustParse("income >= 300 and gender = 0"), Freq: 4})}
	resident := make([]dataset.Block, len(splits))
	for i, split := range splits {
		resident[i] = dataset.ResidentBlock(split, 2)
	}
	// answer runs qs through RunSQE or RunMQE over the splits, or through
	// Pass over the resident blocks, which reads their mirrors and size
	// columns.
	answer := func(c *mapreduce.Cluster, blocks bool, qs []*query.SSD, opts stratified.Options) (met mapreduce.Metrics, err error) {
		switch {
		case blocks:
			_, met, err = stratified.Pass(c, qs, testSchema(), resident, opts)
		case len(qs) == 1:
			_, met, err = stratified.RunSQE(c, qs[0], testSchema(), splits, opts)
		default:
			_, met, err = stratified.RunMQE(c, qs, testSchema(), splits, opts)
		}
		return met, err
	}
	exclude := map[int64]struct{}{37: {}, 74 * 37: {}}
	jobs := []struct {
		name string
		run  func(c *mapreduce.Cluster, resident bool) (mapreduce.Metrics, error)
		want string
	}{
		{"mr-sqe", func(c *mapreduce.Cluster, resident bool) (mapreduce.Metrics, error) {
			return answer(c, resident, queries[:1], stratified.Options{Seed: 3, Exclude: exclude})
		}, "ShuffleBytes 1276, BucketBytes [{0 6} {127 12}]"},
		{"mr-mqe", func(c *mapreduce.Cluster, resident bool) (mapreduce.Metrics, error) {
			return answer(c, resident, queries, stratified.Options{Seed: 3, Exclude: exclude})
		}, "ShuffleBytes 2305, BucketBytes [{0 1} {63 2} {127 10} {255 5}]"},
		{"naive", func(c *mapreduce.Cluster, resident bool) (mapreduce.Metrics, error) {
			return answer(c, resident, queries[1:], stratified.Options{Seed: 3, Exclude: exclude, Naive: true})
		}, "ShuffleBytes 16453, BucketBytes [{0 7} {31 1} {2047 7} {4095 3}]"},
		{"selections", func(c *mapreduce.Cluster, _ bool) (mapreduce.Metrics, error) {
			sels := [][]int{{0, 0}, {1, 0}, {1, 1}, {0, -1}}
			_, met, err := stratified.SampleSelections(c, queries, testSchema(), splits, sels,
				[][]int{{3, 2, 5, 1}, {0, 4, 0, 9}}, nil, exclude, 3)
			return met, err
		}, "ShuffleBytes 1910, BucketBytes [{63 4} {127 10} {255 4}]"},
	}
	tcp := newTCP(t, 2, worker.TCPConfig{})
	defer tcp.Close()
	counted := func(m mapreduce.Metrics) string {
		return fmt.Sprintf("ShuffleBytes %d, BucketBytes %v", m.ShuffleBytes, m.BucketBytes.Buckets())
	}
	for _, job := range jobs {
		for _, side := range []struct {
			name     string
			exec     mapreduce.Executor
			resident bool
		}{{"inproc", nil, false}, {"inproc+mirror", nil, true}, {"tcp", tcp, false}} {
			met, err := job.run(testCluster(side.exec), side.resident)
			if err != nil {
				t.Fatal(err)
			}
			if got := counted(met); got != job.want || met.BucketBytes.Sum() != met.ShuffleBytes {
				t.Errorf("%s on %s: %s (buckets sum to %d), want %s", job.name, side.name, got, met.BucketBytes.Sum(), job.want)
			}
		}
	}
}
