package worker_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
	"repro/internal/worker"
)

// TestSizesMatchRowwiseCount: every stratum size a pass reports — MR-SQE's,
// an 8-query MR-MQE's, naive MR-SQE's, and MR-CPS's limits L(σ) from the
// selection job drawing nothing — equals a row-wise count of the rows it
// could draw (predicate.Compile, excluded IDs skipped), on every backend,
// over contiguous and skewed layouts, with and without exclusions. A stratum
// no row satisfies ("income = 1": incomes here are multiples of 7) reads 0.
func TestSizesMatchRowwiseCount(t *testing.T) {
	r := dataset.NewRelation(testSchema())
	for id := int64(0); id < 900; id++ {
		r.MustAdd(dataset.Tuple{ID: id, Attrs: []int64{id % 2, id * 7 % 1001}})
	}
	queries := make([]*query.SSD, 8)
	for i := range queries {
		cut := 100 + 110*i
		queries[i] = query.NewSSD(fmt.Sprintf("q%d", i),
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income < %d and gender = %d", cut, i%2)), Freq: 3 + i},
			query.Stratum{Cond: predicate.MustParse(fmt.Sprintf("income >= %d", cut)), Freq: 5},
			query.Stratum{Cond: predicate.MustParse("income = 1"), Freq: 2})
	}
	rowwise := func(qs []*query.SSD, exclude map[int64]struct{}) (sizes [][]int64, sigma map[string]int64) {
		preds := make([][]predicate.Pred, len(qs))
		sizes = make([][]int64, len(qs))
		for qi, q := range qs {
			compiled, err := q.Compile(r.Schema()) // predicate.Compile per stratum
			if err != nil {
				t.Fatal(err)
			}
			preds[qi], sizes[qi] = compiled, make([]int64, len(q.Strata))
		}
		sigma = map[string]int64{}
		tuples := r.Tuples()
		for i := range tuples {
			if _, skip := exclude[tuples[i].ID]; skip {
				continue
			}
			sel := make([]int, len(qs))
			for qi := range qs {
				if sel[qi] = query.MatchStratum(preds[qi], &tuples[i]); sel[qi] >= 0 {
					sizes[qi][sel[qi]]++
				}
			}
			sigma[stratified.SelectionKey(sel)]++
		}
		return sizes, sigma
	}
	answerSizes := func(answers ...*query.Answer) [][]int64 {
		sizes := make([][]int64, len(answers))
		for i, ans := range answers {
			sizes[i] = ans.Sizes
		}
		return sizes
	}
	// Every non-empty selection of the first three queries' first two
	// strata, some of which no row has, and one naming their empty strata.
	sels := [][]int{{2, 2, 2}}
	for a := -1; a <= 1; a++ {
		for b := -1; b <= 1; b++ {
			for c := -1; c <= 1; c++ {
				if a >= 0 || b >= 0 || c >= 0 {
					sels = append(sels, []int{a, b, c})
				}
			}
		}
	}
	jobs := []struct {
		name string
		run  func(c *mapreduce.Cluster, splits []dataset.Split, exclude map[int64]struct{}) (got, want [][]int64, err error)
	}{
		{"MR-SQE", func(c *mapreduce.Cluster, splits []dataset.Split, exclude map[int64]struct{}) ([][]int64, [][]int64, error) {
			ans, _, err := stratified.RunSQE(c, queries[0], r.Schema(), splits, stratified.Options{Seed: 5, Exclude: exclude})
			if err != nil {
				return nil, nil, err
			}
			want, _ := rowwise(queries[:1], exclude)
			return answerSizes(ans), want, nil
		}},
		{"MR-MQE", func(c *mapreduce.Cluster, splits []dataset.Split, exclude map[int64]struct{}) ([][]int64, [][]int64, error) {
			answers, _, err := stratified.RunMQE(c, queries, r.Schema(), splits, stratified.Options{Seed: 5, Exclude: exclude})
			if err != nil {
				return nil, nil, err
			}
			want, _ := rowwise(queries, exclude)
			return answerSizes(answers...), want, nil
		}},
		{"naive", func(c *mapreduce.Cluster, splits []dataset.Split, exclude map[int64]struct{}) ([][]int64, [][]int64, error) {
			ans, _, err := stratified.RunSQE(c, queries[1], r.Schema(), splits, stratified.Options{Seed: 5, Exclude: exclude, Naive: true})
			if err != nil {
				return nil, nil, err
			}
			want, _ := rowwise(queries[1:2], exclude)
			return answerSizes(ans), want, nil
		}},
		{"limits", func(c *mapreduce.Cluster, splits []dataset.Split, exclude map[int64]struct{}) ([][]int64, [][]int64, error) {
			counted, _, err := stratified.SampleSelections(c, queries[:3], r.Schema(), splits, sels, nil, nil, exclude, 5)
			if err != nil {
				return nil, nil, err
			}
			_, sigma := rowwise(queries[:3], exclude)
			want := [][]int64{make([]int64, len(sels))}
			for j, sel := range sels {
				want[0][j] = sigma[stratified.SelectionKey(sel)]
			}
			return answerSizes(counted...), want, nil
		}},
	}
	tcp := newTCP(t, 2, worker.TCPConfig{})
	defer tcp.Close()
	sub := newSubprocess(t, 2, nil)
	defer sub.Close()
	for _, backend := range []struct {
		name string
		exec mapreduce.Executor
	}{{"inproc", nil}, {"subprocess", sub}, {"tcp", tcp}} {
		for _, layout := range []dataset.Partitioning{dataset.Contiguous, dataset.Skewed} {
			splits, err := dataset.Partition(r, 6, layout, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, exclude := range []map[int64]struct{}{nil, {0: {}, 1: {}, 14: {}, 451: {}, 898: {}}} {
				for _, job := range jobs {
					got, want, err := job.run(testCluster(backend.exec), splits, exclude)
					if err != nil {
						t.Fatalf("%s on %s, layout %v, %d excluded: %v", job.name, backend.name, layout, len(exclude), err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s on %s, layout %v, %d excluded: sizes %v, a row-wise count gives %v",
							job.name, backend.name, layout, len(exclude), got, want)
					}
				}
			}
		}
	}
}
