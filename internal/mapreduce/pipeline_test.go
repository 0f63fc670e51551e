package mapreduce

import (
	"cmp"
	"reflect"
	"slices"
	"strconv"
	"testing"
)

func pipelineStressJob() *Job[records[int], int, int64, Pair[int, int64]] {
	return &Job[records[int], int, int64, Pair[int, int64]]{
		Name: "pipeline-stress",
		Seed: 42,
		Mapper: forwardStage[int, int, int64](func(ctx *TaskContext, v int, emit func(int, int64)) {
			// Draw from the task RNG so determinism depends on correct
			// per-task seeding, not just on pure data flow.
			emit(v%101, int64(v)+ctx.Rand.Int63n(3))
		}),
		Reducer: ReducerFunc[int, int64, Pair[int, int64]](func(ctx *TaskContext, k int, vs []int64, emit func(Pair[int, int64])) {
			var sum int64
			for _, v := range vs {
				sum += v
			}
			emit(Pair[int, int64]{k, sum + ctx.Rand.Int63n(3)})
		}),
		KeyString: func(k int) string { return strconv.Itoa(k) },
		// Output records are pairs, encoded like the shuffle pairs.
		Codecs: &Codecs[records[int], int, int64, Pair[int, int64]]{
			Split: splitCodec, Pair: intPairCodec,
			Output: RecordsCodec(intPairCodec.AppendPair, intPairCodec.ReadPair),
		},
	}
}

// TestPipelinedShuffleStress drives the shuffle hard — many map tasks
// racing to hand buckets to many reducers, in memory and serialized through
// NewInproc's executor — and checks the output, in key order, is the one of a
// fully serial (one-slave) run. Under `go test -race` this is the main concurrency check
// for the map→shuffle→reduce pipeline on both backend implementations.
func TestPipelinedShuffleStress(t *testing.T) {
	splits := make([]records[int], 32)
	for s := range splits {
		rows := make([]int, 300)
		for i := range rows {
			rows[i] = s*300 + i
		}
		splits[s] = rows
	}
	serial := &Cluster{Slaves: 1, Cost: ZeroCostModel()}
	want, err := Run(serial, pipelineStressJob(), splits)
	if err != nil {
		t.Fatal(err)
	}
	// Reducers follow the slave count, so a wide run emits the keys in
	// another order; what each key reduces to must not move.
	byKey := func(out []Pair[int, int64]) []Pair[int, int64] {
		out = slices.Clone(out)
		slices.SortFunc(out, func(a, b Pair[int, int64]) int { return cmp.Compare(a.Key, b.Key) })
		return out
	}

	wide := func(name string, exec Executor) {
		c := &Cluster{Slaves: 8, Cost: ZeroCostModel(), Executor: exec}
		got, err := Run(c, pipelineStressJob(), splits)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(byKey(got.Output), byKey(want.Output)) {
			t.Fatalf("%s: output differs from serial run", name)
		}
		if got.Metrics.ShuffleRecords != want.Metrics.ShuffleRecords {
			t.Fatalf("%s: shuffle records %d, want %d", name,
				got.Metrics.ShuffleRecords, want.Metrics.ShuffleRecords)
		}
		if got.Metrics.ShuffleBytes != want.Metrics.ShuffleBytes {
			t.Fatalf("%s: shuffle bytes %d, want %d", name,
				got.Metrics.ShuffleBytes, want.Metrics.ShuffleBytes)
		}
	}
	wide("in-memory", nil)
	wide("serialized", NewInproc(func([]byte) (*Job[records[int], int, int64, Pair[int, int64]], error) {
		return pipelineStressJob(), nil
	}))
}
