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

// FuzzReadTupleSlice: a split ships as its rows, one TupleBatch, and is
// decoded straight off a socket into a block. Hostile bytes may be rejected,
// never panic; what decodes re-encodes to a stable form.
func FuzzReadTupleSlice(f *testing.F) {
	rows := dataset.Split{{ID: 1, Name: "a", Attrs: []int64{0, -7}}, {ID: 1 << 40, Attrs: []int64{1, 1000}}}
	for _, split := range []dataset.Split{rows, rows[1:], nil} {
		f.Add(appendBlock(nil, dataset.Block{Rows: split}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := readBlock(wire.NewReader(data)); err == nil {
			enc := appendBlock(nil, b)
			back, err := readBlock(wire.NewReader(enc))
			if err != nil || !bytes.Equal(enc, appendBlock(nil, back)) {
				t.Fatalf("re-encode of a valid decode is unstable: %v", err)
			}
		}
	})
}

// FuzzReadRowRefs: a sampling job's shuffled pairs carry row references,
// decoded straight off a socket. Hostile bytes may be rejected, never panic;
// what decodes re-encodes to a stable form.
func FuzzReadRowRefs(f *testing.F) {
	for _, v := range []refSample{
		{Rows: []rowRef{{0, 3}, {0, 1 << 20}}, N: 9, Bytes: 41},
		{N: 1},
		{N: 1 << 40}, // a vector drawing nothing ships N alone
		{Rows: []rowRef{{math.MaxInt32, math.MaxInt32}}, N: 2, Bytes: 7},
	} {
		f.Add(appendRefPair(nil, mapreduce.Pair[QSKey, refSample]{Key: QSKey{1, 2}, Value: v}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if p, err := readRefPair(wire.NewReader(data)); err == nil {
			enc := appendRefPair(nil, p)
			back, err := readRefPair(wire.NewReader(enc))
			if err != nil || !bytes.Equal(enc, appendRefPair(nil, back)) {
				t.Fatalf("re-encode of a valid pair is unstable: %v", err)
			}
		}
	})
}

// FuzzReadQSOut: a reduce output — a stratum's final references and its N —
// is decoded straight off a socket. Hostile bytes may be rejected, never
// panic; what decodes re-encodes to a stable form, and whether its N can
// stand for its references is samples' to check.
func FuzzReadQSOut(f *testing.F) {
	for _, o := range []qsOut{
		{Key: QSKey{0, 5}, Rows: []rowRef{{3, 7}, {1, 0}, {math.MaxInt32, 2}}, N: 9},
		{},
		{Key: QSKey{0, 3}, N: 1 << 40}, // the limits: N alone
		{Key: QSKey{2, 0}, Rows: []rowRef{{0, 1}}, N: -1},
	} {
		f.Add(appendQSOut(nil, o))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
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

// forgedExecutor runs tasks through the serialized route and swaps every
// reduce output for out: what a worker that answered for another run's
// splits, or miscounted its strata, would send.
type forgedExecutor struct {
	mapreduce.InprocExecutor
	out qsOut
}

func (e *forgedExecutor) Execute(spec *mapreduce.TaskSpec) (*mapreduce.TaskResult, error) {
	res, err := e.InprocExecutor.Execute(spec)
	if err != nil || spec.Phase != "reduce" {
		return res, err
	}
	res.Output = wire.AppendUvarint([]byte{0x01}, 1) // the engine's payload format byte, one record
	res.Output = appendQSOut(res.Output, e.out)
	return res, nil
}

// forgedRuns runs every sampling entry point with each reduce output
// replaced by out and returns their errors by name.
func forgedRuns(t *testing.T, out qsOut) map[string]error {
	t.Helper()
	r := genderPop(20, 20)
	splits, err := dataset.Partition(r, 2, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	q := genderSSD(2, 2)
	c := zeroCluster(2)
	c.Executor = &forgedExecutor{out: out}
	_, _, errSQE := RunSQE(c, q, r.Schema(), splits, Options{Seed: 1})
	_, _, errMQE := RunMQE(c, []*query.SSD{q, q}, r.Schema(), splits, Options{Seed: 1})
	_, _, errSel := SampleSelections(c, []*query.SSD{q}, r.Schema(), splits, [][]int{{0}, {1}}, [][]int{{1, 1}}, nil, nil, 1)
	_, _, errLim := SampleSelections(c, []*query.SSD{q}, r.Schema(), splits, [][]int{{0}, {1}}, nil, nil, nil, 1)
	return map[string]error{"MR-SQE": errSQE, "MR-MQE": errMQE, "selections": errSel, "limits": errLim}
}

// TestForeignReferenceIsAnError: the coordinator builds an answer's tuples
// from its own splits, so a reduce output naming a split or a row the run
// does not have fails the run with an error naming the reference — for
// every sampling entry point — where indexing it would panic.
func TestForeignReferenceIsAnError(t *testing.T) {
	for _, ref := range []rowRef{{2, 0}, {0, 20}} {
		want := fmt.Sprintf("names row %d of split %d", ref.Row, ref.Split)
		for name, err := range forgedRuns(t, qsOut{Key: QSKey{0, 0}, Rows: []rowRef{ref}, N: 1}) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with a reduce output naming %v: error %v, want one that %s", name, ref, err, want)
			}
		}
	}
}

// TestForgedSizeIsAnError: a reduce output's N becomes its stratum's size in
// the answer, so one below zero, or below the number of rows it drew, fails
// the run — for every sampling entry point — rather than reaching an
// estimate.
func TestForgedSizeIsAnError(t *testing.T) {
	for _, out := range []qsOut{
		{Rows: []rowRef{{0, 1}, {1, 2}}, N: 1},
		{Rows: []rowRef{{0, 1}}, N: 0},
		{N: -3},
	} {
		want := fmt.Sprintf("draws %d rows from a stratum of %d", len(out.Rows), out.N)
		for name, err := range forgedRuns(t, out) {
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s with a reduce output of %d rows and N %d: error %v, want one that %s", name, len(out.Rows), out.N, err, want)
			}
		}
	}
}

// TestForgedKeyIsAnError: a reduce output's key indexes the answer, so one
// naming a vector or a class the job does not have fails the run — for
// every sampling entry point — where indexing it would panic.
func TestForgedKeyIsAnError(t *testing.T) {
	for _, key := range []QSKey{{0, 7}, {5, 0}, {-1, 0}, {0, -1}} {
		for name, err := range forgedRuns(t, qsOut{Key: key, N: 1}) {
			if err == nil || !strings.Contains(err.Error(), "a key the job does not have") {
				t.Errorf("%s with a reduce output keyed %v: error %v, want one naming the key", name, key, err)
			}
		}
	}
}
