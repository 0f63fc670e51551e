package mapreduce

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/wire"
)

func sampleSpec() *TaskSpec {
	return &TaskSpec{
		Job: "mr-sqe:workers", Maker: "mr-sqe", Config: []byte(`{"query":1}`),
		Phase: "reduce", Task: 1, Seed: -77, NumReducers: 2,
		Buckets:     [][]byte{{0x00, 0x01}, nil, {0x01, 0x00}},
		NumMapTasks: 3,
		Shuffle: &ShufflePlan{
			Session: "job#9", Workers: []string{"a", "b"},
			Endpoints: []string{"127.0.0.1:1", "127.0.0.1:2"}, TimeoutMs: 15000,
		},
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
		Buckets:     [][]byte{nil, {0x01, 0x02}},
		DirectBytes: 9999,
		Output:      []byte{0x00, 0x2A},
		Counters: TaskCounters{
			In: 10, Out: 5, CombineIn: 10, CombineOut: 5, Groups: 2,
			BucketSizes: []int64{100, -1},
			MapWall:     2 * time.Second, CombineWall: time.Millisecond, RecvWall: time.Minute,
		},
		Custom:         map[string]*Histogram{"reservoir_size": h},
		PerKey:         map[string]KeyStats{"s000000": {Records: 5, Output: 1}},
		Worker:         "tcp-0",
		FailedAttempts: []TaskAttempt{{Worker: "tcp-1", Err: "boom"}},
		Spans: []WorkerSpan{
			{Phase: PhaseDecode, Start: 1700000000000000000, Dur: 1500, Bytes: 4096},
			{Phase: PhaseExec, Start: 1700000000000002000, Dur: 2 * time.Millisecond},
			{Phase: PhasePush, Dur: time.Microsecond, Bytes: 12345},
		},
	}
}

// TestTraceWireCompat: the trace extensions are strictly additive. A spec
// without a trace context encodes without the trace section and round-trips
// to empty fields, and a result without worker spans has no trailing section
// — the exact byte shapes a version-1 peer produces and expects.
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

// TestTaskWireMatchesGob: the binary codec must preserve exactly what a gob
// round trip preserves, for the same inputs.
func TestTaskWireMatchesGob(t *testing.T) {
	spec := sampleSpec()
	raw, err := gobEncode(spec)
	if err != nil {
		t.Fatal(err)
	}
	var viaGob TaskSpec
	if err := gobDecode(raw, &viaGob); err != nil {
		t.Fatal(err)
	}
	viaWire, err := ReadTaskSpec(wire.NewReader(AppendTaskSpec(nil, spec)))
	if err != nil {
		t.Fatal(err)
	}
	// Compare through the binary rendering: gob conflates nil and empty
	// slices, which the engine never distinguishes either.
	if !reflect.DeepEqual(AppendTaskSpec(nil, &viaGob), AppendTaskSpec(nil, viaWire)) {
		t.Errorf("wire and gob decode to different specs:\ngob  %+v\nwire %+v", &viaGob, viaWire)
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

func TestEncodeDecodeBucket(t *testing.T) {
	pairs := []Pair[string, int64]{{"a", 1}, {"b", 2}}
	payload, err := encodeBucket(pairs)
	if err != nil {
		t.Fatal(err)
	}
	back, err := decodeBucket[string, int64](payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pairs, back) {
		t.Fatalf("round trip %v", back)
	}
	if _, err := decodeBucket[string, int64]([]byte("garbage")); err == nil {
		t.Fatal("want decode error")
	}
	empty, err := encodeBucket[string, int64](nil)
	if err != nil {
		t.Fatal(err)
	}
	backEmpty, err := decodeBucket[string, int64](empty)
	if err != nil || len(backEmpty) != 0 {
		t.Fatalf("empty round trip: %v, %v", backEmpty, err)
	}
}

// TestBucketCodecRoundTripAndFallback: a registered pair codec round-trips
// through encodeBucket/decodeBucket, unregistered types fall back to gob,
// and the escape hatch forces gob even for registered types. All paths
// produce identical pair values.
func TestBucketCodecRoundTripAndFallback(t *testing.T) {
	type key struct{ A, B int }
	RegisterBucketCodec(BucketCodec[key, int64]{
		AppendPair: func(buf []byte, p Pair[key, int64]) []byte {
			buf = wire.AppendVarint(buf, int64(p.Key.A))
			buf = wire.AppendVarint(buf, int64(p.Key.B))
			return wire.AppendVarint(buf, p.Value)
		},
		ReadPair: func(r *wire.Reader) (Pair[key, int64], error) {
			var p Pair[key, int64]
			p.Key.A = int(r.Varint())
			p.Key.B = int(r.Varint())
			p.Value = r.Varint()
			return p, r.Err()
		},
	})
	pairs := []Pair[key, int64]{{Key: key{1, 2}, Value: -3}, {Key: key{4, 5}, Value: 1 << 40}}

	enc, err := encodeBucket(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != payloadBinary {
		t.Fatalf("registered type encoded with tag %#x, want binary", enc[0])
	}
	got, err := decodeBucket[key, int64](enc)
	if err != nil || !reflect.DeepEqual(pairs, got) {
		t.Errorf("binary bucket round trip: %v %+v", err, got)
	}

	// Unregistered pair type → gob tag, still round-trips.
	type other struct{ S string }
	opairs := []Pair[string, other]{{Key: "x", Value: other{"y"}}}
	oenc, err := encodeBucket(opairs)
	if err != nil {
		t.Fatal(err)
	}
	if oenc[0] != payloadGob {
		t.Fatalf("unregistered type encoded with tag %#x, want gob", oenc[0])
	}
	ogot, err := decodeBucket[string, other](oenc)
	if err != nil || !reflect.DeepEqual(opairs, ogot) {
		t.Errorf("gob bucket round trip: %v %+v", err, ogot)
	}

	// Escape hatch: registered types too must fall back to gob.
	SetWireGob(true)
	defer SetWireGob(false)
	henc, err := encodeBucket(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if henc[0] != payloadGob {
		t.Fatalf("escape hatch encoded with tag %#x, want gob", henc[0])
	}
	hgot, err := decodeBucket[key, int64](henc)
	if err != nil || !reflect.DeepEqual(pairs, hgot) {
		t.Errorf("escape-hatch bucket round trip: %v %+v", err, hgot)
	}

	// Empty buckets still carry their tag — never empty, the hole marker
	// invariant the direct shuffle depends on.
	empty, err := encodeBucket[key, int64](nil)
	if err != nil || len(empty) == 0 {
		t.Errorf("empty bucket must be non-empty payload: %v %v", empty, err)
	}
	egot, err := decodeBucket[key, int64](empty)
	if err != nil || len(egot) != 0 {
		t.Errorf("empty bucket round trip: %v %+v", err, egot)
	}
}

// TestSliceCodecFallback mirrors the bucket test for whole-slice payloads.
func TestSliceCodecFallback(t *testing.T) {
	type rec struct{ N int64 }
	// No codec registered for rec → gob tag.
	recs := []rec{{1}, {2}}
	enc, err := encodeSlice(recs)
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] != payloadGob {
		t.Fatalf("tag %#x, want gob", enc[0])
	}
	got, err := decodeSlice[rec](enc)
	if err != nil || !reflect.DeepEqual(recs, got) {
		t.Errorf("slice round trip: %v %+v", err, got)
	}
	if _, err := decodeSlice[rec](nil); err == nil {
		t.Error("empty payload must be rejected")
	}
	if _, err := decodeSlice[rec]([]byte{0x77}); err == nil {
		t.Error("unknown tag must be rejected")
	}
}
