package mapreduce

import (
	"fmt"
	"io"
	"strconv"
	"testing"

	"repro/internal/wire"
)

// The benchmark and test jobs use (int, int64) pairs, records[int] splits
// and []int64 outputs, and carry these codecs; testInproc rebuilds them from
// their config — the job's name — the way a worker rebuilds its one job.
var intPairCodec = BucketCodec[int, int64]{
	AppendPair: func(buf []byte, p Pair[int, int64]) []byte {
		buf = wire.AppendVarint(buf, int64(p.Key))
		return wire.AppendVarint(buf, p.Value)
	},
	ReadPair: func(r *wire.Reader) (Pair[int, int64], error) {
		k := r.Varint()
		v := r.Varint()
		return Pair[int, int64]{Key: int(k), Value: v}, r.Err()
	},
}

var ints = RecordsCodec(
	func(buf []byte, x int) []byte { return wire.AppendVarint(buf, int64(x)) },
	func(r *wire.Reader) (int, error) { return int(r.Varint()), r.Err() })

var splitCodec = Codec[records[int]]{
	Append: func(buf []byte, s records[int]) []byte { return ints.Append(buf, s) },
	Read:   func(r *wire.Reader) (records[int], error) { return ints.Read(r) },
}

var testCodecs = &Codecs[records[int], int, int64, int64]{
	Split: splitCodec,
	Pair:  intPairCodec,
	Output: RecordsCodec(wire.AppendVarint,
		func(r *wire.Reader) (int64, error) { return r.Varint(), r.Err() }),
}

var testInproc = NewInproc(func(config []byte) (*Job[records[int], int, int64, int64], error) {
	switch string(config) {
	case "remote-modcount":
		return portableJob(0), nil
	case "shuffle-heavy":
		return shuffleHeavyJob(), nil
	}
	return nil, fmt.Errorf("no test job %q", config)
})

// shuffleHeavyJob forwards every record unchanged under a wide key space,
// so nearly all engine time is spent moving, grouping and byte-accounting
// shuffle pairs rather than in map or reduce user code.
func shuffleHeavyJob() *Job[records[int], int, int64, int64] {
	return &Job[records[int], int, int64, int64]{
		Name: "shuffle-heavy",
		Mapper: forwardStage[int, int, int64](func(_ *TaskContext, v int, emit func(int, int64)) {
			emit(v%997, int64(v))
		}),
		Reducer: ReducerFunc[int, int64, int64](func(_ *TaskContext, _ int, vs []int64, emit func(int64)) {
			emit(int64(len(vs)))
		}),
		KeyString: func(k int) string { return strconv.Itoa(k) },
		Config:    []byte("shuffle-heavy"),
		Codecs:    testCodecs,
	}
}

// benchShuffle runs the shuffle-heavy job in memory (exec nil) or serialized
// through the given executor.
func benchShuffle(b *testing.B, exec Executor, tr Tracer, rows int) {
	splits := make([]records[int], 16)
	for s := range splits {
		split := make([]int, rows)
		for i := range split {
			split[i] = s*rows + i
		}
		splits[s] = split
	}
	cluster := &Cluster{Slaves: 4, Cost: ZeroCostModel(), Tracer: tr, Executor: exec}
	job := shuffleHeavyJob()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Seed = int64(i)
		res, err := Run(cluster, job, splits)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.ShuffleRecords != int64(16*rows) {
			b.Fatal("wrong shuffle record count")
		}
	}
}

// BenchmarkShuffle measures the in-memory shuffle: per-reducer grouping and
// approximate byte accounting over 16 tasks × 4000 records × 997 keys.
func BenchmarkShuffle(b *testing.B) { benchShuffle(b, nil, nil, 4000) }

// BenchmarkShuffleTraced is BenchmarkShuffle with a JSON-lines tracer
// enabled, bounding the span-assembly overhead on a shuffle-heavy job.
func BenchmarkShuffleTraced(b *testing.B) {
	benchShuffle(b, nil, NewJSONLTracer(io.Discard), 4000)
}

// BenchmarkShuffleSerialized measures the serialized shuffle route: every
// task a TaskSpec through NewInproc's executor — encode, routed hand-over, decode,
// group.
func BenchmarkShuffleSerialized(b *testing.B) {
	benchShuffle(b, testInproc, nil, 4000)
}

// BenchmarkShuffleVolume scales the serialized shuffle's record volume to
// show how codec allocations grow with bytes moved — the allocs/op column is
// the budget the wire codec is held to (flat per record).
func BenchmarkShuffleVolume(b *testing.B) {
	for _, rows := range []int{4000, 16000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			benchShuffle(b, testInproc, nil, rows)
		})
	}
}

// BenchmarkEngine runs a counting job — a combining stage, the shape every
// production pass has — over synthetic splits, measuring engine overhead per
// record with observability off (nil tracer).
func BenchmarkEngine(b *testing.B) { benchEngine(b, nil) }

// BenchmarkEngineTraced is BenchmarkEngine with a JSON-lines tracer enabled
// — the tracer-on cost of the same job (span assembly, wall-clock reads,
// per-key counters and JSON encoding to a discarded sink).
func BenchmarkEngineTraced(b *testing.B) {
	benchEngine(b, NewJSONLTracer(io.Discard))
}

func benchEngine(b *testing.B, tr Tracer) {
	splits := make([]records[int], 16)
	for s := range splits {
		rows := make([]int, 2000)
		for i := range rows {
			rows[i] = s*2000 + i
		}
		splits[s] = rows
	}
	job := &Job[records[int], int, int64, int64]{
		Name: "mod-count",
		Mapper: sumStage[int, int]{fn: func(_ *TaskContext, v int, emit func(int, int64)) {
			emit(v%64, 1)
		}},
		Reducer:   sumReducer(func(_ int, n int64) int64 { return n }),
		KeyString: func(k int) string { return strconv.Itoa(k) },
	}
	cluster := &Cluster{Slaves: 4, Cost: ZeroCostModel(), Tracer: tr}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job.Seed = int64(i)
		res, err := Run(cluster, job, splits)
		if err != nil {
			b.Fatal(err)
		}
		if res.Metrics.MapInputRecords != 32000 {
			b.Fatal("wrong input count")
		}
	}
}
