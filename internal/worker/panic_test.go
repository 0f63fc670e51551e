package worker_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/wire"
	"repro/internal/worker"
)

// panickyStage is a counting map stage that panics on the split of one task.
type panickyStage struct{ task int }

func (s panickyStage) MapSplit(ctx *mapreduce.TaskContext, b dataset.Block, emit func(int, int64)) (matches, combined int64) {
	if ctx.Task == s.task {
		panic("boom in user code")
	}
	n := int64(b.Len())
	emit(0, n)
	return n, n
}

func init() {
	mapreduce.RegisterBucketCodec(mapreduce.BucketCodec[int, int64]{
		AppendPair: func(buf []byte, p mapreduce.Pair[int, int64]) []byte {
			return wire.AppendVarint(wire.AppendVarint(buf, int64(p.Key)), p.Value)
		},
		ReadPair: func(r *wire.Reader) (mapreduce.Pair[int, int64], error) {
			return mapreduce.Pair[int, int64]{Key: int(r.Varint()), Value: r.Varint()}, r.Err()
		},
	})
	mapreduce.RegisterCodec(mapreduce.RecordsCodec(wire.AppendVarint,
		func(r *wire.Reader) (int64, error) { return r.Varint(), r.Err() }))
	mapreduce.RegisterJobMaker("test-panicky",
		func([]byte) (*mapreduce.Job[dataset.Block, int, int64, int64], error) { return panickyJob(), nil })
}

func panickyJob() *mapreduce.Job[dataset.Block, int, int64, int64] {
	return &mapreduce.Job[dataset.Block, int, int64, int64]{
		Name: "panicky", Maker: "test-panicky",
		Mapper: panickyStage{task: 2},
		Reducer: mapreduce.ReducerFunc[int, int64, int64](func(_ *mapreduce.TaskContext, _ int, vs []int64, emit func(int64)) {
			emit(int64(len(vs)))
		}),
		KeyString: func(int) string { return "k" },
	}
}

// TestTaskPanicIsTaskError: a map task that panics on a worker fails its job
// with an error naming the job, phase, task and panic value; the worker is
// not lost — the tcp pool still counts both of its workers, and the
// subprocess pool's only worker serves the next job.
func TestTaskPanicIsTaskError(t *testing.T) {
	splits := testPopulation(t)
	want, _ := runSQE(t, nil, splits)
	input := dataset.Blocks(splits)
	check := func(t *testing.T, exec mapreduce.Executor, await func() error) {
		_, err := mapreduce.Run(testCluster(exec), panickyJob(), input)
		if err == nil {
			t.Fatal("job with a panicking map task succeeded")
		}
		for _, part := range []string{`job "panicky"`, "map task 2", "panicked", "boom in user code"} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("error %q does not name %q", err, part)
			}
		}
		if await != nil {
			if err := await(); err != nil {
				t.Errorf("a worker was lost to the panic: %v", err)
			}
		}
		if got, _ := runSQE(t, exec, splits); !reflect.DeepEqual(want, got) {
			t.Errorf("answer after the panic differs from in-process:\n in: %v\nout: %v", want, got)
		}
	}
	t.Run("tcp", func(t *testing.T) {
		exec := newTCP(t, 2, worker.TCPConfig{})
		defer exec.Close()
		check(t, exec, func() error { return exec.AwaitWorkers(2, time.Second) })
	})
	t.Run("subprocess", func(t *testing.T) {
		exec := newSubprocess(t, 1, nil)
		defer exec.Close()
		check(t, exec, nil)
	})
}
