package mapreduce

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/wire"
)

func sampleSpec() *TaskSpec {
	return &TaskSpec{
		Job: "mr-sqe:workers", Maker: "mr-sqe", Config: []byte(`{"query":1}`),
		Phase: "reduce", Task: 1, Seed: -77, NumReducers: 2,
		Split:       []byte{0x01, 0x07},
		Buckets:     [][]byte{{0x00, 0x01}, {0x01}, {0x01, 0x00}},
		CollectKeys: true, Frozen: true,
		Trace: "3fa9c1d2e4b50607", TraceRun: "b3.p0", TraceParent: 0xdeadbeef,
	}
}

func sampleResult() *TaskResult {
	h := &Histogram{}
	for _, v := range []int64{1, 2, 1 << 33, 0, -5} {
		h.Observe(v)
	}
	return &TaskResult{
		Buckets: [][]byte{{0x01}, {0x01, 0x02}},
		Output:  []byte{0x00, 0x2A},
		Counters: TaskCounters{
			In: 10, Out: 5, CombineIn: 10, CombineOut: 5, Groups: 2,
			BucketSizes: []int64{100, -1},
			MapWall:     2 * time.Second,
		},
		Custom:         map[string]*Histogram{"reservoir_size": h},
		PerKey:         map[string]KeyStats{"s000000": {Records: 5, Output: 1}},
		Worker:         "tcp-0",
		FailedAttempts: []TaskAttempt{{Worker: "tcp-1", Err: "boom"}},
		Spans: []WorkerSpan{
			{Phase: PhaseDecode, Start: 1700000000000000000, Dur: 1500, Bytes: 4096},
			{Phase: PhaseExec, Start: 1700000000000002000, Dur: 2 * time.Millisecond},
		},
	}
}

// TestTraceWireCompat: the trace sections cost untraced runs nothing. A spec
// without a trace context encodes without the trace section and round-trips
// to empty fields, and a result without worker spans has no trailing section.
func TestTraceWireCompat(t *testing.T) {
	spec := sampleSpec()
	spec.Trace, spec.TraceRun, spec.TraceParent = "", "", 0
	traced := sampleSpec()
	if plain, withTrace := AppendTaskSpec(nil, spec), AppendTaskSpec(nil, traced); len(plain) >= len(withTrace) {
		t.Errorf("untraced spec (%d bytes) not smaller than traced (%d bytes)", len(plain), len(withTrace))
	}
	got, err := ReadTaskSpec(wire.NewReader(AppendTaskSpec(nil, spec)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Trace != "" || got.TraceRun != "" || got.TraceParent != 0 {
		t.Errorf("untraced spec decoded with trace fields: %+v", got)
	}

	res := sampleResult()
	res.Spans = nil
	buf := AppendTaskResult(nil, res)
	r := wire.NewReader(buf)
	if _, err := ReadTaskResult(r); err != nil {
		t.Fatal(err)
	}
	if r.Remaining() != 0 {
		t.Errorf("span-free result left %d trailing bytes", r.Remaining())
	}
}

func TestTaskSpecWireRoundTrip(t *testing.T) {
	for _, s := range []*TaskSpec{sampleSpec(), {}} {
		buf := AppendTaskSpec(nil, s)
		got, err := ReadTaskSpec(wire.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s, got) {
			t.Errorf("spec round trip:\nwant %+v\n got %+v", s, got)
		}
	}
}

func TestTaskResultWireRoundTrip(t *testing.T) {
	for _, res := range []*TaskResult{sampleResult(), {}} {
		buf := AppendTaskResult(nil, res)
		got, err := ReadTaskResult(wire.NewReader(buf))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, got) {
			t.Errorf("result round trip:\nwant %+v\n got %+v", res, got)
		}
	}
}

// TestTaskWireFieldComplete: the round-trip fixtures set every field that
// crosses the wire, so TestTaskSpecWireRoundTrip / TestTaskResultWireRoundTrip
// fail when a field is added to a struct and not to its codec. The
// coordinator-local attribution fields of TaskResult never travel.
func TestTaskWireFieldComplete(t *testing.T) {
	local := map[string]bool{"QueueNanos": true, "SentAtNanos": true, "RecvAtNanos": true,
		"ClockOffsetNanos": true, "ClockOffsetOK": true}
	spec, res := sampleSpec(), sampleResult()
	for _, fixture := range []any{*spec, *res, res.Counters, res.Spans[0]} {
		v := reflect.ValueOf(fixture)
		for i := 0; i < v.NumField(); i++ {
			if name := v.Type().Field(i).Name; v.Field(i).IsZero() && !local[name] {
				t.Errorf("fixture leaves %s.%s unset", v.Type().Name(), name)
			}
		}
	}
}

func TestTaskWireCorruptRejected(t *testing.T) {
	buf := AppendTaskResult(nil, sampleResult())
	for cut := 0; cut < len(buf); cut++ {
		_, err := ReadTaskResult(wire.NewReader(buf[:cut]))
		_ = err // any prefix must decode cleanly or error — never panic
	}
	for i := range buf {
		mut := append([]byte(nil), buf...)
		mut[i] ^= 0xFF
		_, _ = ReadTaskResult(wire.NewReader(mut))
	}
}

func TestHistogramWireRoundTrip(t *testing.T) {
	h := &Histogram{}
	for v := int64(-10); v < 100; v += 7 {
		h.Observe(v * v * 1000)
	}
	got, err := readHistogram(wire.NewReader(appendHistogram(nil, h)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(h, got) {
		t.Errorf("histogram round trip:\nwant %+v\n got %+v", h, got)
	}
	empty := &Histogram{}
	got, err = readHistogram(wire.NewReader(appendHistogram(nil, empty)))
	if err != nil || !reflect.DeepEqual(empty, got) {
		t.Errorf("empty histogram round trip: %v %+v", err, got)
	}
}

// TestEncodeDecodeBucket: there is one payload format. A registered pair
// type round-trips; one with no codec is an error naming the type on both
// sides; a payload leading with any other format byte is ErrCorrupt.
func TestEncodeDecodeBucket(t *testing.T) {
	pairs := []Pair[int, int64]{{1, -3}, {4, 1 << 40}}
	payload, err := encodeBucket(pairs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeBucket[int, int64](payload)
	if err != nil || !reflect.DeepEqual(pairs, back) {
		t.Fatalf("round trip %v: %v", back, err)
	}
	if _, err := decodeBucket[int, int64]([]byte("garbage")); err == nil {
		t.Fatal("want decode error")
	}
	// Empty buckets still carry their format byte: a payload is never empty.
	empty, err := encodeBucket[int, int64](nil)
	if err != nil || len(empty) == 0 {
		t.Fatalf("empty bucket must be a non-empty payload: %v %v", empty, err)
	}
	backEmpty, err := decodeBucket[int, int64](empty)
	if err != nil || len(backEmpty) != 0 {
		t.Fatalf("empty round trip: %v, %v", backEmpty, err)
	}

	type other struct{ S string }
	_, err = encodeBucket([]Pair[string, other]{{Key: "x", Value: other{"y"}}})
	if err == nil || !strings.Contains(err.Error(), "Pair[string,") {
		t.Errorf("encoding an unregistered pair type: %v, want an error naming it", err)
	}
	if _, err := decodeBucket[string, other](empty); err == nil || !strings.Contains(err.Error(), "Pair[string,") {
		t.Errorf("decoding an unregistered pair type: %v, want an error naming it", err)
	}
	for _, format := range []byte{0x00, 0x02, 0xFF} {
		if _, err := decodeBucket[int, int64]([]byte{format, 0}); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("format byte %#x: %v, want ErrCorrupt", format, err)
		}
	}
}

// TestSliceCodecErrors mirrors the bucket errors for value payloads (a
// reduce output's record slice here).
func TestSliceCodecErrors(t *testing.T) {
	type rec struct{ N int64 }
	if _, err := encodeValue([]rec{{1}}); err == nil || !strings.Contains(err.Error(), "[]mapreduce.rec") {
		t.Errorf("encoding an unregistered slice type: %v, want an error naming it", err)
	}
	if _, err := decodeValue[[]rec]([]byte{payloadFormat, 0}); err == nil || !strings.Contains(err.Error(), "[]mapreduce.rec") {
		t.Errorf("decoding an unregistered slice type: %v, want an error naming it", err)
	}
	if _, err := decodeValue[[]int64](nil); !errors.Is(err, wire.ErrTruncated) {
		t.Errorf("empty payload: %v, want ErrTruncated", err)
	}
	if _, err := decodeValue[[]int64]([]byte{0x00, 0}); !errors.Is(err, wire.ErrCorrupt) {
		t.Errorf("unknown format byte: %v, want ErrCorrupt", err)
	}
}
