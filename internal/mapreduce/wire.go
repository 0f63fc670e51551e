package mapreduce

import (
	"fmt"
	"reflect"
	"sync"
	"time"

	"repro/internal/wire"
)

// This file is the engine's side of the wire codec: payload encodings for
// task splits, shuffle buckets and reduce outputs, plus the
// TaskSpec/TaskResult frame bodies the worker protocol embeds. It is the only
// serialization that crosses a process boundary; a payload type without a
// registered codec is an error, not a slower route.

// payloadFormat leads every payload (split, bucket, output). Any other first
// byte is wire.ErrCorrupt.
const payloadFormat = 0x01

// --- codec registries -------------------------------------------------------

// BucketCodec encodes/decodes one shuffle pair of a concrete (K, V)
// instantiation. AppendPair appends one pair's binary form; ReadPair
// reverses it.
type BucketCodec[K comparable, V any] struct {
	AppendPair func(buf []byte, p Pair[K, V]) []byte
	ReadPair   func(r *wire.Reader) (Pair[K, V], error)
}

// Codec encodes/decodes one whole payload value: a map task's split (any
// split type; a codec may pick a columnar layout, as dataset.TupleBatch) or
// a reduce task's output records ([]O, usually through RecordsCodec).
type Codec[T any] struct {
	Append func(buf []byte, v T) []byte
	Read   func(r *wire.Reader) (T, error)
}

// RecordsCodec builds the codec of a record slice from its per-record
// encoder and decoder: a count, then the records in order.
func RecordsCodec[T any](app func([]byte, T) []byte, read func(*wire.Reader) (T, error)) Codec[[]T] {
	return Codec[[]T]{
		Append: func(buf []byte, recs []T) []byte {
			buf = wire.AppendUvarint(buf, uint64(len(recs)))
			for _, rec := range recs {
				buf = app(buf, rec)
			}
			return buf
		},
		Read: func(r *wire.Reader) ([]T, error) {
			recs := make([]T, r.Count(1))
			for i := range recs {
				var err error
				if recs[i], err = read(r); err != nil {
					return nil, err
				}
			}
			return recs, r.Err()
		},
	}
}

// codecs maps the reflect.Type of a *BucketCodec[K,V] or *Codec[T] to the
// registered codec — keyed by the codec's type, so a value codec and a
// bucket codec never collide. sync.Map: written during init, read on the hot
// path.
var codecs sync.Map

// RegisterBucketCodec installs the codec for one pair type. Call it from an
// init function alongside RegisterJobMaker, so coordinator and worker
// binaries agree on the format.
func RegisterBucketCodec[K comparable, V any](c BucketCodec[K, V]) {
	codecs.Store(reflect.TypeOf((*BucketCodec[K, V])(nil)), c)
}

// RegisterCodec installs the codec for payloads of type T: a job's split
// type, and the []O of its output records.
func RegisterCodec[T any](c Codec[T]) {
	codecs.Store(reflect.TypeOf((*Codec[T])(nil)), c)
}

// lookupCodec returns the registered codec of type C, whose payloads are of
// type T, or an error naming T.
func lookupCodec[C, T any]() (C, error) {
	v, ok := codecs.Load(reflect.TypeOf((*C)(nil)))
	if !ok {
		var zero C
		return zero, fmt.Errorf("mapreduce: no wire codec registered for %v", reflect.TypeOf((*T)(nil)).Elem())
	}
	return v.(C), nil
}

// payloadReader checks a payload's format byte and returns a reader over
// the body.
func payloadReader(payload []byte) (*wire.Reader, error) {
	if len(payload) == 0 {
		return nil, fmt.Errorf("mapreduce: empty payload: %w", wire.ErrTruncated)
	}
	if payload[0] != payloadFormat {
		return nil, fmt.Errorf("mapreduce: unknown payload format %#x: %w", payload[0], wire.ErrCorrupt)
	}
	return wire.NewReader(payload[1:]), nil
}

// --- value payloads (splits, reduce outputs) --------------------------------

// encodeValue serializes a payload with its type's registered codec.
func encodeValue[T any](v T) ([]byte, error) {
	c, err := lookupCodec[Codec[T], T]()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1, 64)
	buf[0] = payloadFormat
	return c.Append(buf, v), nil
}

// decodeValue reverses encodeValue.
func decodeValue[T any](payload []byte) (v T, err error) {
	c, err := lookupCodec[Codec[T], T]()
	if err != nil {
		return v, err
	}
	r, err := payloadReader(payload)
	if err != nil {
		return v, err
	}
	if v, err = c.Read(r); err != nil {
		return v, err
	}
	return v, r.Done()
}

// --- bucket payloads (shuffle) ----------------------------------------------

// encodeBucket serializes one map task's pairs for one reducer: the format
// byte, the pair count, then each pair through the registered codec.
func encodeBucket[K comparable, V any](pairs []Pair[K, V]) ([]byte, error) {
	c, err := lookupCodec[BucketCodec[K, V], Pair[K, V]]()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 1, 64)
	buf[0] = payloadFormat
	buf = wire.AppendUvarint(buf, uint64(len(pairs)))
	for _, p := range pairs {
		buf = c.AppendPair(buf, p)
	}
	return buf, nil
}

// decodeBucket reverses encodeBucket.
func decodeBucket[K comparable, V any](payload []byte) ([]Pair[K, V], error) {
	c, err := lookupCodec[BucketCodec[K, V], Pair[K, V]]()
	if err != nil {
		return nil, err
	}
	r, err := payloadReader(payload)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: decoding shuffle bucket: %w", err)
	}
	n := r.Count(1)
	var pairs []Pair[K, V]
	if n > 0 {
		pairs = make([]Pair[K, V], 0, n)
	}
	for i := 0; i < n; i++ {
		p, err := c.ReadPair(r)
		if err != nil {
			return nil, fmt.Errorf("mapreduce: decoding shuffle bucket: %w", err)
		}
		pairs = append(pairs, p)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("mapreduce: decoding shuffle bucket: %w", err)
	}
	return pairs, nil
}

// --- histograms -------------------------------------------------------------

// appendHistogram encodes a histogram sparsely: summary varints, then only
// the non-zero buckets as (index, count) pairs — task histograms touch a
// handful of the 65 buckets.
func appendHistogram(buf []byte, h *Histogram) []byte {
	buf = wire.AppendVarint(buf, h.count)
	buf = wire.AppendVarint(buf, h.sum)
	buf = wire.AppendVarint(buf, h.min)
	buf = wire.AppendVarint(buf, h.max)
	nz := 0
	for _, c := range h.buckets {
		if c != 0 {
			nz++
		}
	}
	buf = wire.AppendUvarint(buf, uint64(nz))
	for i, c := range h.buckets {
		if c != 0 {
			buf = append(buf, byte(i))
			buf = wire.AppendVarint(buf, c)
		}
	}
	return buf
}

func readHistogram(r *wire.Reader) (*Histogram, error) {
	h := &Histogram{}
	h.count = r.Varint()
	h.sum = r.Varint()
	h.min = r.Varint()
	h.max = r.Varint()
	nz := r.Count(2)
	for i := 0; i < nz; i++ {
		idx := r.Byte()
		c := r.Varint()
		if r.Err() == nil && int(idx) >= histogramBuckets {
			return nil, fmt.Errorf("mapreduce: histogram bucket index %d: %w", idx, wire.ErrCorrupt)
		}
		if r.Err() == nil {
			h.buckets[idx] = c
		}
	}
	return h, r.Err()
}

// --- TaskSpec ---------------------------------------------------------------

// Spec/result flag bits.
const (
	specCollectKeys = 1 << 0
	specFrozen      = 1 << 1
	// specHasTrace marks a trace-context section after the flags: trace
	// id, run id, parent span id.
	specHasTrace = 1 << 2
)

// AppendTaskSpec appends the spec's binary frame body. The layout mirrors
// the struct field order; Config/Split/Buckets are embedded verbatim (the
// payloads carry their own format byte).
func AppendTaskSpec(buf []byte, s *TaskSpec) []byte {
	buf = wire.AppendString(buf, s.Job)
	buf = wire.AppendString(buf, s.Maker)
	buf = wire.AppendBytes(buf, s.Config)
	buf = wire.AppendString(buf, s.Phase)
	buf = wire.AppendUvarint(buf, uint64(s.Task))
	buf = wire.AppendVarint(buf, s.Seed)
	buf = wire.AppendUvarint(buf, uint64(s.NumReducers))
	buf = wire.AppendBytes(buf, s.Split)
	buf = wire.AppendUvarint(buf, uint64(len(s.Buckets)))
	for _, b := range s.Buckets {
		buf = wire.AppendBytes(buf, b)
	}
	var flags byte
	if s.CollectKeys {
		flags |= specCollectKeys
	}
	if s.Frozen {
		flags |= specFrozen
	}
	if s.Trace != "" {
		flags |= specHasTrace
	}
	buf = append(buf, flags)
	if s.Trace != "" {
		buf = wire.AppendString(buf, s.Trace)
		buf = wire.AppendString(buf, s.TraceRun)
		buf = wire.AppendUvarint(buf, s.TraceParent)
	}
	return buf
}

// ReadTaskSpec decodes one AppendTaskSpec body. Byte-slice fields are views
// into the reader's buffer: the frame buffer must outlive the spec, which
// the worker runtime guarantees by never recycling read-path buffers.
func ReadTaskSpec(r *wire.Reader) (*TaskSpec, error) {
	s := &TaskSpec{}
	s.Job = r.String()
	s.Maker = r.String()
	s.Config = r.Bytes()
	s.Phase = r.String()
	s.Task = int(r.Uvarint())
	s.Seed = r.Varint()
	s.NumReducers = int(r.Uvarint())
	s.Split = r.Bytes()
	if n := r.Count(1); n > 0 {
		s.Buckets = make([][]byte, n)
		for i := range s.Buckets {
			s.Buckets[i] = r.Bytes()
		}
	}
	flags := r.Byte()
	s.CollectKeys = flags&specCollectKeys != 0
	s.Frozen = flags&specFrozen != 0
	if flags&specHasTrace != 0 {
		s.Trace = r.String()
		s.TraceRun = r.String()
		s.TraceParent = r.Uvarint()
	}
	return s, r.Err()
}

// --- TaskResult -------------------------------------------------------------

// AppendTaskResult appends the result's binary frame body. Map-valued
// fields (Custom, PerKey) are sorted by key so the encoding is
// deterministic — frames are comparable in tests and re-sends are
// byte-identical.
func AppendTaskResult(buf []byte, t *TaskResult) []byte {
	buf = wire.AppendUvarint(buf, uint64(len(t.Buckets)))
	for _, b := range t.Buckets {
		buf = wire.AppendBytes(buf, b)
	}
	buf = wire.AppendBytes(buf, t.Output)
	c := &t.Counters
	buf = wire.AppendVarint(buf, c.In)
	buf = wire.AppendVarint(buf, c.Out)
	buf = wire.AppendVarint(buf, c.CombineIn)
	buf = wire.AppendVarint(buf, c.CombineOut)
	buf = wire.AppendVarint(buf, c.Groups)
	buf = wire.AppendUvarint(buf, uint64(len(c.BucketSizes)))
	for _, v := range c.BucketSizes {
		buf = wire.AppendVarint(buf, v)
	}
	buf = wire.AppendVarint(buf, int64(c.MapWall))
	buf = wire.AppendUvarint(buf, uint64(len(t.Custom)))
	for _, name := range sortedKeys(t.Custom) {
		buf = wire.AppendString(buf, name)
		buf = appendHistogram(buf, t.Custom[name])
	}
	buf = wire.AppendUvarint(buf, uint64(len(t.PerKey)))
	for _, key := range sortedKeys(t.PerKey) {
		ks := t.PerKey[key]
		buf = wire.AppendString(buf, key)
		buf = wire.AppendVarint(buf, ks.Records)
		buf = wire.AppendVarint(buf, ks.Output)
	}
	buf = wire.AppendString(buf, t.Worker)
	buf = wire.AppendUvarint(buf, uint64(len(t.FailedAttempts)))
	for _, a := range t.FailedAttempts {
		buf = wire.AppendString(buf, a.Worker)
		buf = wire.AppendString(buf, a.Err)
	}
	// Worker spans ride as a trailing section, self-describing by position:
	// the result body is always the last thing in its frame, so its absence
	// is simply "no bytes left". A worker emits it only in reply to a spec
	// that carried a trace context.
	if len(t.Spans) > 0 {
		buf = wire.AppendUvarint(buf, uint64(len(t.Spans)))
		for _, ws := range t.Spans {
			buf = wire.AppendString(buf, ws.Phase)
			buf = wire.AppendVarint(buf, ws.Start)
			buf = wire.AppendVarint(buf, int64(ws.Dur))
			buf = wire.AppendVarint(buf, ws.Bytes)
		}
	}
	return buf
}

// ReadTaskResult decodes one AppendTaskResult body. As with ReadTaskSpec,
// byte-slice fields alias the reader's buffer.
func ReadTaskResult(r *wire.Reader) (*TaskResult, error) {
	t := &TaskResult{}
	if n := r.Count(1); n > 0 {
		t.Buckets = make([][]byte, n)
		for i := range t.Buckets {
			t.Buckets[i] = r.Bytes()
		}
	}
	t.Output = r.Bytes()
	c := &t.Counters
	c.In = r.Varint()
	c.Out = r.Varint()
	c.CombineIn = r.Varint()
	c.CombineOut = r.Varint()
	c.Groups = r.Varint()
	if n := r.Count(1); n > 0 {
		c.BucketSizes = make([]int64, n)
		for i := range c.BucketSizes {
			c.BucketSizes[i] = r.Varint()
		}
	}
	c.MapWall = time.Duration(r.Varint())
	if n := r.Count(5); n > 0 {
		t.Custom = make(map[string]*Histogram, n)
		for i := 0; i < n; i++ {
			name := r.String()
			h, err := readHistogram(r)
			if err != nil {
				return nil, err
			}
			t.Custom[name] = h
		}
	}
	if n := r.Count(3); n > 0 {
		t.PerKey = make(map[string]KeyStats, n)
		for i := 0; i < n; i++ {
			key := r.String()
			t.PerKey[key] = KeyStats{Records: r.Varint(), Output: r.Varint()}
		}
	}
	t.Worker = r.String()
	if n := r.Count(2); n > 0 {
		t.FailedAttempts = make([]TaskAttempt, n)
		for i := range t.FailedAttempts {
			t.FailedAttempts[i].Worker = r.String()
			t.FailedAttempts[i].Err = r.String()
		}
	}
	if r.Err() == nil && r.Remaining() > 0 {
		if n := r.Count(4); n > 0 {
			t.Spans = make([]WorkerSpan, n)
			for i := range t.Spans {
				t.Spans[i].Phase = r.String()
				t.Spans[i].Start = r.Varint()
				t.Spans[i].Dur = time.Duration(r.Varint())
				t.Spans[i].Bytes = r.Varint()
			}
		}
	}
	return t, r.Err()
}
