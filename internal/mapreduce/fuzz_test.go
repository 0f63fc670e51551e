package mapreduce

import (
	"testing"

	"repro/internal/wire"
)

// Fuzz targets for what a worker or coordinator decodes straight off a
// socket and then acts on: hostile bytes may be rejected, never panic.

// sampleTasks runs a well-formed map attempt of the remote-modcount job
// through testInproc and the reduce attempt its first bucket feeds, so the
// corpora start from frames that reach the task cores, next to the
// round-trip fixtures.
func sampleTasks(f testing.TB) ([]*TaskSpec, []*TaskResult) {
	split := encodeValue(testCodecs.Split, records[int]{3, 56, 109, 4})
	m := &TaskSpec{Job: "fuzz", Config: []byte("remote-modcount"), Phase: "map", Seed: 5, NumReducers: 2, Split: split}
	mres, err := testInproc.Execute(m)
	if err != nil {
		f.Fatal(err)
	}
	r := *m
	r.Phase, r.Split, r.Buckets, r.CollectKeys = "reduce", nil, mres.Buckets[:1], true
	rres, err := testInproc.Execute(&r)
	if err != nil {
		f.Fatal(err)
	}
	return []*TaskSpec{sampleSpec(), m, &r, {}}, []*TaskResult{sampleResult(), mres, rres, {}}
}

func FuzzReadTaskSpec(f *testing.F) {
	specs, _ := sampleTasks(f)
	for _, s := range specs {
		f.Add(AppendTaskSpec(nil, s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if spec, err := ReadTaskSpec(wire.NewReader(data)); err == nil {
			// One job: the executor caches per (job, config).
			spec.Job, spec.Config = "fuzz", []byte("remote-modcount")
			_, _ = testInproc.Execute(spec)
		}
	})
}

func FuzzReadTaskResult(f *testing.F) {
	_, results := sampleTasks(f)
	for _, res := range results {
		f.Add(AppendTaskResult(nil, res))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if res, err := ReadTaskResult(wire.NewReader(data)); err == nil {
			// What the coordinator does with a result: decode its payloads.
			_, _ = decodeValue(testCodecs.Output, res.Output)
			for _, b := range res.Buckets {
				_, _ = decodeBucket(testCodecs.Pair, b)
			}
		}
	})
}

func FuzzDecodeBucket(f *testing.F) {
	_, results := sampleTasks(f)
	for _, b := range results[1].Buckets {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { _, _ = decodeBucket(testCodecs.Pair, data) })
}
