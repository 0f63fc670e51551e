package worker

import (
	"bytes"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/mapreduce"
)

func sampleHistogram() *mapreduce.Histogram {
	h := &mapreduce.Histogram{}
	for _, v := range []int64{0, 1, 5, 1 << 20, -3} {
		h.Observe(v)
	}
	return h
}

// sampleEnvelopes covers every envelope kind with representative payloads —
// the table for round-trip tests and the fuzz seed corpus.
func sampleEnvelopes() []*envelope {
	return []*envelope{
		{Kind: msgHello, ID: "tcp-1", WireVersion: wireVersion, WallNanos: 1700000000000000001},
		{Kind: msgHeartbeat},
		{Kind: msgDrain},
		{Kind: msgTask, Seq: 7, Spec: &mapreduce.TaskSpec{
			Job: "mr-sqe", Config: []byte(`{"job":"sqe"}`),
			Phase: "map", Task: 3, Seed: -42, NumReducers: 2,
			Split: []byte{1, 2, 3}, Frozen: true,
		}},
		{Kind: msgTask, Seq: 8, Spec: &mapreduce.TaskSpec{
			Job: "mr-sqe", Phase: "reduce", Task: 0,
			NumReducers: 2,
			Buckets:     [][]byte{{0x01, 0x00}, {0x01}, {0x01, 0x02, 0x09}},
			CollectKeys: true,
		}},
		{Kind: msgResult, Seq: 7, Result: &mapreduce.TaskResult{
			Buckets: [][]byte{{0x01, 0x00}, {0x01}},
			Output:  []byte{0x00, 0xFF},
			Counters: mapreduce.TaskCounters{
				In: 100, Out: 50, CombineIn: 100, CombineOut: 50, Groups: 2,
				BucketSizes: []int64{10, 20},
				MapWall:     3 * time.Millisecond,
			},
			Custom: map[string]*mapreduce.Histogram{"reservoir_size": sampleHistogram()},
			PerKey: map[string]mapreduce.KeyStats{
				"s000000": {Records: 3, Output: 1},
				"s000001": {Records: 4, Output: 2},
			},
			Worker:         "sp-0",
			FailedAttempts: []mapreduce.TaskAttempt{{Worker: "sp-1", Err: "lease expired"}},
		}},
		{Kind: msgResult, Seq: 9, Err: "no such maker"},
	}
}

// TestEnvelopeBinaryRoundTrip: every envelope kind — and one envelope with
// every field set, so a field added to the struct and not to the codec
// fails — survives the frame layer exactly, the hello's version and clock
// sample included.
func TestEnvelopeBinaryRoundTrip(t *testing.T) {
	samples := sampleEnvelopes()
	full := &envelope{
		Kind: msgHello, WireVersion: wireVersion, ID: "w", WallNanos: -5,
		Seq: 1 << 40, Spec: samples[4].Spec, Result: samples[5].Result, Err: "boom",
	}
	for v, i := reflect.ValueOf(*full), 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Errorf("envelope.%s is unset in the field-complete fixture", v.Type().Field(i).Name)
		}
	}
	var buf bytes.Buffer
	c := newFrameConn(&buf, &buf)
	for _, env := range append(samples, full) {
		if err := c.write(env); err != nil {
			t.Fatal(err)
		}
		if got, err := c.read(); err != nil || !reflect.DeepEqual(env, got) {
			t.Errorf("%v frame round trip: %v\nwant %+v\n got %+v", env.Kind, err, env, got)
		}
	}
}

// TestHelloVersionMismatchRejected: a peer announcing another wire version
// is refused with ErrWireVersion — never downgraded — and the coordinator
// keeps serving. There is one attach path (the tcp accept loop: subprocess
// children dial it too), so there is one arm.
func TestHelloVersionMismatchRejected(t *testing.T) {
	var stale bytes.Buffer // writes to it cannot fail
	_ = newFrameConn(nil, &stale).write(&envelope{Kind: msgHello, ID: "stale", WireVersion: wireVersion - 1})
	if _, err := awaitHello(newFrameConn(bytes.NewReader(stale.Bytes()), nil)); !errors.Is(err, ErrWireVersion) {
		t.Errorf("stale hello: %v, want ErrWireVersion", err)
	}

	exec, err := NewTCPExecutor(TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	conn, err := net.Dial("tcp", exec.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write(stale.Bytes()); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF || exec.pool.liveWorkers() != 0 {
		t.Errorf("tcp attach: read %v with %d workers attached, want a hang-up and none", err, exec.pool.liveWorkers())
	}
	exec.SpawnLocal(1)
	if err := exec.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Errorf("coordinator stopped accepting after a stale hello: %v", err)
	}
}

// TestServeAnswersBadSpecs: a spec whose counts are out of range is answered
// with a task error, and the worker serves on.
func TestServeAnswersBadSpecs(t *testing.T) {
	coord, work := net.Pipe()
	done := make(chan error, 1)
	go func() { done <- serve(work, work, ServeOptions{ID: "w", HeartbeatInterval: time.Hour}) }()
	c := newFrameConn(coord, coord)
	if _, err := c.read(); err != nil { // the hello
		t.Fatal(err)
	}
	for i, spec := range []*mapreduce.TaskSpec{
		{Phase: "map", NumReducers: 0},
		{Phase: "reduce", NumReducers: -1},
		{Phase: "reduce", NumReducers: 1, Task: -1},
	} {
		if err := c.write(&envelope{Kind: msgTask, Seq: uint64(i), Spec: spec}); err != nil {
			t.Fatal(err)
		}
		if env, err := c.read(); err != nil || !strings.Contains(env.Err, mapreduce.ErrInvalidSpec.Error()) {
			t.Fatalf("spec %d: reply %+v, %v; want an invalid-spec task error", i, env, err)
		}
	}
	if err := c.write(&envelope{Kind: msgDrain}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Errorf("worker did not survive to a clean drain: %v", err)
	}
}

// TestFrameErrorsNamed: oversized length prefixes and mid-frame cuts
// surface as the named error types, and a clean close stays bare io.EOF.
func TestFrameErrorsNamed(t *testing.T) {
	oversize := []byte{0x40, 0x00, 0x00, 0x01} // 1 GiB + 1
	_, err := newFrameConn(bytes.NewReader(oversize), io.Discard).read()
	var fse *FrameSizeError
	if !errors.As(err, &fse) {
		t.Errorf("oversized frame: %v, want *FrameSizeError", err)
	} else if fse.Size != maxFrameSize+1 {
		t.Errorf("FrameSizeError.Size = %d, want %d", fse.Size, maxFrameSize+1)
	}

	short := []byte{0x00, 0x00, 0x00, 0x10, 0xAA} // claims 16 bytes, has 1
	_, err = newFrameConn(bytes.NewReader(short), io.Discard).read()
	var fte *FrameTruncatedError
	if !errors.As(err, &fte) {
		t.Errorf("truncated frame: %v, want *FrameTruncatedError", err)
	} else if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("FrameTruncatedError does not unwrap to io.ErrUnexpectedEOF: %v", err)
	}

	cutPrefix := []byte{0x00, 0x00} // stream dies inside the length word
	_, err = newFrameConn(bytes.NewReader(cutPrefix), io.Discard).read()
	if !errors.As(err, &fte) {
		t.Errorf("cut length prefix: %v, want *FrameTruncatedError", err)
	}

	_, err = newFrameConn(bytes.NewReader(nil), io.Discard).read()
	if err != io.EOF {
		t.Errorf("clean close: %v, want bare io.EOF", err)
	}
}

// TestDecodeEnvelopeCorruptRejected: flipped bytes and truncations of valid
// frames decode to clean errors, never a panic.
func TestDecodeEnvelopeCorruptRejected(t *testing.T) {
	for _, env := range sampleEnvelopes() {
		buf := appendEnvelope(nil, env)
		for cut := 0; cut < len(buf); cut += 2 {
			if _, err := decodeEnvelope(buf[:cut]); err == nil {
				// Some prefixes of a valid frame are themselves valid frames
				// (trailing zero-valued fields); Done() catches the rest.
				t.Logf("%v frame: prefix %d/%d decoded cleanly", env.Kind, cut, len(buf))
			}
		}
		for i := range buf {
			mut := append([]byte(nil), buf...)
			mut[i] ^= 0xFF
			_, _ = decodeEnvelope(mut) // must not panic
		}
	}
}

func FuzzDecodeEnvelope(f *testing.F) {
	for _, env := range sampleEnvelopes() {
		f.Add(appendEnvelope(nil, env))
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Fuzz(func(t *testing.T, data []byte) {
		env, err := decodeEnvelope(data)
		if err == nil {
			// Valid decodes must re-encode decodable (not necessarily
			// byte-identical: nil/empty maps conflate).
			if _, err := decodeEnvelope(appendEnvelope(nil, env)); err != nil {
				t.Fatalf("re-encode of valid decode failed: %v", err)
			}
		}
	})
}
