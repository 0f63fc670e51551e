package stratified

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/wire"
)

// sampleCodecs are the wire formats every job of this package carries: a
// split ships as its rows, columnar (TupleBatch), and nothing else — a
// block's mirror and size column stay with the coordinator's population, and
// a worker reads the rows it decodes; the one shuffle pair shape —
// (query/stratum, (row references, N)) — and the one reduce output record
// get hand-rolled codecs. A job's shuffle and output carry references into
// the run's splits, never tuples: the coordinator builds the answer's tuples
// from its own splits.
var sampleCodecs = &mapreduce.Codecs[dataset.Block, QSKey, refSample, qsOut]{
	Split:  mapreduce.Codec[dataset.Block]{Append: appendBlock, Read: readBlock},
	Pair:   mapreduce.BucketCodec[QSKey, refSample]{AppendPair: appendRefPair, ReadPair: readRefPair},
	Output: mapreduce.RecordsCodec(appendQSOut, readQSOut),
}

// appendBlock ships a block's rows as one TupleBatch. The rows of a split
// share the schema's arity (Relation.Add and live.Population check it); a
// ragged split is a broken caller, and fails as indexing its short rows
// in process would.
func appendBlock(buf []byte, b dataset.Block) []byte {
	batch, uniform := dataset.BatchOfTuples(b.Rows)
	if !uniform {
		panic("stratified: a split's rows differ in arity; the schema gives them one")
	}
	return batch.AppendWire(buf)
}

// readBlock decodes appendBlock's form as a block of rows alone.
func readBlock(r *wire.Reader) (dataset.Block, error) {
	batch, err := dataset.ReadTupleBatchWire(r)
	if err != nil || batch.Len() == 0 {
		return dataset.Block{}, err
	}
	return dataset.Block{Rows: batch.Tuples()}, r.Err()
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

// appendQSOut encodes one reduce output: the key, N, then the references.
// Whether N can stand for the references is the reader's to check
// (samples).
func appendQSOut(buf []byte, o qsOut) []byte {
	buf = wire.AppendVarint(appendQSKey(buf, o.Key), o.N)
	return appendRowRefs(buf, o.Rows)
}

func readQSOut(r *wire.Reader) (o qsOut, err error) {
	o.Key = readQSKey(r)
	o.N = r.Varint()
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
