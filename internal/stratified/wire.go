package stratified

import (
	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/sampling"
	"repro/internal/wire"
)

// Wire codecs for every payload type of the portable jobs registered in
// portable.go: tuple splits ship columnar (TupleBatch); the two shuffle pair
// shapes — (query/stratum, weighted tuples) for the sampling jobs, (stratum,
// count) for the counting job — and the two reduce output records get
// hand-rolled codecs. Registration lives
// in init alongside the job makers so every binary that can run the jobs
// also speaks their payload format.

func init() {
	mapreduce.RegisterSliceCodec(mapreduce.SliceCodec[dataset.Tuple]{
		Append: appendTupleSlice,
		Read:   readTupleSlice,
	})
	mapreduce.RegisterBucketCodec(mapreduce.BucketCodec[QSKey, WeightedTuples]{
		AppendPair: func(buf []byte, p mapreduce.Pair[QSKey, WeightedTuples]) []byte {
			buf = wire.AppendVarint(buf, int64(p.Key.Query))
			buf = wire.AppendVarint(buf, int64(p.Key.Stratum))
			return appendWeightedTuples(buf, p.Value)
		},
		ReadPair: func(r *wire.Reader) (mapreduce.Pair[QSKey, WeightedTuples], error) {
			var p mapreduce.Pair[QSKey, WeightedTuples]
			p.Key.Query = int(r.Varint())
			p.Key.Stratum = int(r.Varint())
			var err error
			p.Value, err = readWeightedTuples(r)
			return p, err
		},
	})
	mapreduce.RegisterBucketCodec(mapreduce.BucketCodec[int, int64]{
		AppendPair: func(buf []byte, p mapreduce.Pair[int, int64]) []byte {
			buf = wire.AppendVarint(buf, int64(p.Key))
			return wire.AppendVarint(buf, p.Value)
		},
		ReadPair: func(r *wire.Reader) (mapreduce.Pair[int, int64], error) {
			var p mapreduce.Pair[int, int64]
			p.Key = int(r.Varint())
			p.Value = r.Varint()
			return p, r.Err()
		},
	})
	mapreduce.RegisterSliceCodec(mapreduce.RecordsCodec(
		func(buf []byte, o qsOut) []byte {
			buf = wire.AppendVarint(buf, int64(o.Key.Query))
			buf = wire.AppendVarint(buf, int64(o.Key.Stratum))
			return appendTupleSlice(buf, o.Sample)
		},
		func(r *wire.Reader) (o qsOut, err error) {
			o.Key.Query = int(r.Varint())
			o.Key.Stratum = int(r.Varint())
			o.Sample, err = readTupleSlice(r)
			return o, err
		}))
	mapreduce.RegisterSliceCodec(mapreduce.RecordsCodec(
		func(buf []byte, o stratumCountOut) []byte {
			buf = wire.AppendVarint(buf, int64(o.Stratum))
			return wire.AppendVarint(buf, o.Count)
		},
		func(r *wire.Reader) (stratumCountOut, error) {
			return stratumCountOut{Stratum: int(r.Varint()), Count: r.Varint()}, r.Err()
		}))
}

// appendTupleSlice ships a []Tuple split columnar when the tuples have
// uniform arity (one leading 1 byte), falling back to per-tuple encoding
// for ragged slices (leading 0 byte).
func appendTupleSlice(buf []byte, ts []dataset.Tuple) []byte {
	b, uniform := dataset.BatchOfTuples(ts)
	buf = wire.AppendBool(buf, uniform)
	if uniform {
		return b.AppendWire(buf)
	}
	buf = wire.AppendUvarint(buf, uint64(len(ts)))
	for i := range ts {
		buf = ts[i].AppendWire(buf)
	}
	return buf
}

func readTupleSlice(r *wire.Reader) ([]dataset.Tuple, error) {
	if r.Bool() {
		b, err := dataset.ReadTupleBatchWire(r)
		if err != nil {
			return nil, err
		}
		if b.Len() == 0 {
			return nil, r.Err()
		}
		return b.Tuples(), r.Err()
	}
	n := r.Count(1)
	var ts []dataset.Tuple
	if n > 0 {
		ts = make([]dataset.Tuple, 0, n)
	}
	for i := 0; i < n; i++ {
		t, err := dataset.ReadTupleWire(r)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, r.Err()
}

// appendWeightedTuples encodes a sampling.Weighted[dataset.Tuple]: the
// population weight, then the sample as a columnar batch (same fallback
// scheme as appendTupleSlice).
func appendWeightedTuples(buf []byte, w WeightedTuples) []byte {
	buf = wire.AppendVarint(buf, w.N)
	return appendTupleSlice(buf, w.Sample)
}

func readWeightedTuples(r *wire.Reader) (WeightedTuples, error) {
	var w sampling.Weighted[dataset.Tuple]
	w.N = r.Varint()
	var err error
	w.Sample, err = readTupleSlice(r)
	return w, err
}
