package stratified

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/wire"
)

// Wire codecs for every payload type of the portable jobs registered in
// portable.go: tuple splits ship columnar (TupleBatch); the two shuffle pair
// shapes — (query/stratum, row references) for the sampling jobs, (stratum,
// count) for the counting job — and the two reduce output records get
// hand-rolled codecs. A sampling job's shuffle and output carry references
// into the run's splits, never tuples: the coordinator builds the answer's
// tuples from its own splits. Registration lives in init alongside the job
// makers so every binary that can run the jobs also speaks their payload
// format.

func init() {
	mapreduce.RegisterSliceCodec(mapreduce.SliceCodec[dataset.Tuple]{
		Append: appendTupleSlice,
		Read:   readTupleSlice,
	})
	mapreduce.RegisterBucketCodec(mapreduce.BucketCodec[QSKey, refSample]{
		AppendPair: appendRefPair,
		ReadPair:   readRefPair,
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
	mapreduce.RegisterSliceCodec(mapreduce.RecordsCodec(appendQSOut, readQSOut))
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

func appendQSKey(buf []byte, k QSKey) []byte {
	buf = wire.AppendVarint(buf, int64(k.Query))
	return wire.AppendVarint(buf, int64(k.Stratum))
}

func readQSKey(r *wire.Reader) QSKey {
	return QSKey{Query: int(r.Varint()), Stratum: int(r.Varint())}
}

// appendRefPair encodes one shuffled pair of a sampling job: the key, N, the
// tuples' wire size, then the references.
func appendRefPair(buf []byte, p mapreduce.Pair[QSKey, refSample]) []byte {
	buf = appendQSKey(buf, p.Key)
	buf = wire.AppendVarint(buf, p.Value.N)
	buf = wire.AppendVarint(buf, p.Value.Bytes)
	return appendRowRefs(buf, p.Value.Rows)
}

func readRefPair(r *wire.Reader) (p mapreduce.Pair[QSKey, refSample], err error) {
	p.Key = readQSKey(r)
	p.Value.N = r.Varint()
	p.Value.Bytes = r.Varint()
	p.Value.Rows, err = readRowRefs(r)
	return p, err
}

func appendQSOut(buf []byte, o qsOut) []byte {
	return appendRowRefs(appendQSKey(buf, o.Key), o.Rows)
}

func readQSOut(r *wire.Reader) (o qsOut, err error) {
	o.Key = readQSKey(r)
	o.Rows, err = readRowRefs(r)
	return o, err
}

// appendRowRefs encodes references as a count, then (split, row) uvarints.
func appendRowRefs(buf []byte, rows []rowRef) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(rows)))
	for _, ref := range rows {
		buf = wire.AppendUvarint(buf, uint64(ref.Split))
		buf = wire.AppendUvarint(buf, uint64(ref.Row))
	}
	return buf
}

// readRowRefs decodes appendRowRefs' form; none decodes as nil. A half that
// does not fit a non-negative int32 is corrupt. Whether a reference names a
// row of the run is the reader's to check (samples).
func readRowRefs(r *wire.Reader) ([]rowRef, error) {
	n := r.Count(2)
	if n == 0 {
		return nil, r.Err()
	}
	rows := make([]rowRef, n)
	for i := range rows {
		split, row := r.Uvarint(), r.Uvarint()
		if split > math.MaxInt32 || row > math.MaxInt32 {
			return nil, fmt.Errorf("stratified: row reference (%d, %d) overflows int32: %w", split, row, wire.ErrCorrupt)
		}
		rows[i] = rowRef{int32(split), int32(row)}
	}
	return rows, r.Err()
}
