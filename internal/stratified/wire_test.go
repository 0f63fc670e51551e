package stratified

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/wire"
)

// FuzzReadTupleSlice: a tuple slice is what every split and every shuffled
// sample decodes, straight off a socket. Hostile bytes may be rejected, never
// panic, on the columnar (uniform arity) and the ragged arm alike; what
// decodes re-encodes to a stable form.
func FuzzReadTupleSlice(f *testing.F) {
	uniform := []dataset.Tuple{{ID: 1, Name: "a", Attrs: []int64{0, -7}}, {ID: 1 << 40, Attrs: []int64{1, 1000}}}
	ragged := append([]dataset.Tuple{{ID: 2, Attrs: []int64{5}}}, uniform...)
	for _, ts := range [][]dataset.Tuple{uniform, ragged, nil} {
		f.Add(appendTupleSlice(nil, ts))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if ts, err := readTupleSlice(wire.NewReader(data)); err == nil {
			enc := appendTupleSlice(nil, ts)
			back, err := readTupleSlice(wire.NewReader(enc))
			if err != nil || !bytes.Equal(enc, appendTupleSlice(nil, back)) {
				t.Fatalf("re-encode of a valid decode is unstable: %v", err)
			}
		}
	})
}

// FuzzReadRowRefs: a sampling job's shuffled pairs and reduce outputs carry
// row references, decoded straight off a socket. Hostile bytes may be
// rejected, never panic, as a pair and as an output record alike; what
// decodes re-encodes to a stable form.
func FuzzReadRowRefs(f *testing.F) {
	pair := mapreduce.Pair[QSKey, refSample]{Key: QSKey{1, 2}, Value: refSample{
		Rows: []rowRef{{0, 3}, {0, 1 << 20}}, N: 9, Bytes: 41,
	}}
	f.Add(appendRefPair(nil, pair))
	f.Add(appendRefPair(nil, mapreduce.Pair[QSKey, refSample]{Value: refSample{N: 1}}))
	f.Add(appendQSOut(nil, qsOut{Key: QSKey{0, 5}, Rows: []rowRef{{3, 7}, {1, 0}, {math.MaxInt32, 2}}}))
	f.Add(appendQSOut(nil, qsOut{}))
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := readRefPair(wire.NewReader(data)); err == nil {
			enc := appendRefPair(nil, p)
			back, err := readRefPair(wire.NewReader(enc))
			if err != nil || !bytes.Equal(enc, appendRefPair(nil, back)) {
				t.Fatalf("re-encode of a valid pair is unstable: %v", err)
			}
		}
		if o, err := readQSOut(wire.NewReader(data)); err == nil {
			enc := appendQSOut(nil, o)
			back, err := readQSOut(wire.NewReader(enc))
			if err != nil || !bytes.Equal(enc, appendQSOut(nil, back)) {
				t.Fatalf("re-encode of a valid output is unstable: %v", err)
			}
		}
	})
}

// TestReadRowRefsRejectsOverflow: a reference half past int32 is corrupt,
// not truncated into some other row.
func TestReadRowRefsRejectsOverflow(t *testing.T) {
	buf := wire.AppendUvarint(nil, 1)
	buf = wire.AppendUvarint(buf, 0)
	buf = wire.AppendUvarint(buf, math.MaxInt32+1)
	if _, err := readRowRefs(wire.NewReader(buf)); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("row %d decoded with error %v, want ErrCorrupt", int64(math.MaxInt32)+1, err)
	}
}

// foreignRefExecutor runs tasks through the serialized route and swaps every
// reduce output for one naming ref: what a worker that answered for another
// run's splits would send.
type foreignRefExecutor struct {
	mapreduce.InprocExecutor
	ref rowRef
}

func (e *foreignRefExecutor) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	res, err := e.InprocExecutor.Execute(spec)
	if err != nil || spec.Phase != "reduce" {
		return res, err
	}
	res.Output = wire.AppendUvarint([]byte{0x01}, 1) // the engine's payload format byte, one record
	res.Output = appendQSOut(res.Output, qsOut{Key: QSKey{0, 0}, Rows: []rowRef{e.ref}})
	return res, nil
}

// TestForeignReferenceIsAnError: the coordinator builds an answer's tuples
// from its own splits, so a reduce output naming a split or a row the run
// does not have fails the run with an error naming the reference — for
// every sampling entry point — where indexing it would panic.
func TestForeignReferenceIsAnError(t *testing.T) {
	r := genderPop(20, 20)
	splits, err := dataset.Partition(r, 2, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := genderSSD(2, 2)
	for _, ref := range []rowRef{{2, 0}, {0, int32(len(splits[0]))}} {
		c := zeroCluster(2)
		c.Executor = &foreignRefExecutor{ref: ref}
		want := fmt.Sprintf("names row %d of split %d", ref.Row, ref.Split)
		_, _, errSQE := RunSQE(c, q, r.Schema(), splits, Options{Seed: 1})
		_, _, errMQE := RunMQE(c, []*query.SSD{q, q}, r.Schema(), splits, Options{Seed: 1})
		_, _, errSel := SampleSelections(c, []*query.SSD{q}, r.Schema(), splits, [][]int{{0}, {1}}, [][]int{{1, 1}}, nil, nil, 1)
		for name, err := range map[string]error{"MR-SQE": errSQE, "MR-MQE": errMQE, "selections": errSel} {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with a reduce output naming %v: error %v, want one that %s", name, ref, err, want)
			}
		}
	}
}
