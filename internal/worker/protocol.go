package worker

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/wire"
)

// The wire protocol: length-prefixed frames, each a single envelope in the
// binary codec of wire.go. Frames are self-contained; the one transport they
// travel is a tcp connection the worker dialed.

// msgKind discriminates envelope frames.
type msgKind uint8

const (
	// msgHello is the first frame a worker sends: it announces the worker
	// id under which results and failed attempts are reported.
	msgHello msgKind = iota + 1
	// msgTask carries one task attempt, coordinator → worker.
	msgTask
	// msgResult answers a task frame (matching Seq), worker → coordinator.
	msgResult
	// msgHeartbeat keeps the worker's lease alive while it executes.
	msgHeartbeat
	// msgDrain asks the worker to finish up and exit cleanly.
	msgDrain
)

// envelope is one protocol frame. Only the fields relevant to Kind are set.
type envelope struct {
	Kind msgKind
	// WireVersion is the frame format version the sender speaks (hello
	// frames; see wireVersion).
	WireVersion uint8
	// ID is the worker id (hello frames).
	ID string
	// WallNanos is the worker's wall clock when it sent its hello, in unix
	// nanoseconds. The coordinator subtracts its own receive time to get a
	// clock-offset estimate, used to align worker-side trace spans to the
	// coordinator's timeline. Zero means "unknown".
	WallNanos int64
	// Seq correlates a result with its task frame.
	Seq uint64
	// Spec is the task attempt to execute (task frames).
	Spec *mapreduce.TaskSpec
	// Result is the executed attempt's outcome (result frames)...
	Result *mapreduce.TaskResult
	// ...or Err the reason it could not be produced. A non-empty Err is a
	// task-level failure (bad payload, unregistered job maker): it is
	// deterministic, so the coordinator fails the task instead of retrying.
	Err string
}

// maxFrameSize bounds a single frame, as a guard against a corrupted or
// malicious length prefix allocating unbounded memory. 1 GiB comfortably
// exceeds any real task payload.
const maxFrameSize = 1 << 30

// FrameSizeError is the named error for a frame whose length prefix exceeds
// maxFrameSize — a corrupted stream or a hostile peer, never a real task.
// The pool treats it like any other stream failure: the worker is dropped
// and its in-flight task reassigned, because nothing after an oversized
// length prefix can be trusted.
type FrameSizeError struct {
	// Size is the length the prefix claimed.
	Size uint32
	// Max is the maxFrameSize limit it exceeded.
	Max uint32
}

// Error renders the violation.
func (e *FrameSizeError) Error() string {
	return fmt.Sprintf("worker: frame of %d bytes exceeds limit %d", e.Size, e.Max)
}

// FrameTruncatedError is the named error for a stream that ended mid-frame:
// the length prefix or payload was cut short. It wraps the underlying read
// error (usually io.ErrUnexpectedEOF). A clean close between frames is NOT
// a FrameTruncatedError — that surfaces as bare io.EOF.
type FrameTruncatedError struct {
	// Want is how many bytes the truncated read needed.
	Want int
	// Err is the underlying read error.
	Err error
}

// Error renders the truncation.
func (e *FrameTruncatedError) Error() string {
	return fmt.Sprintf("worker: stream cut mid-frame (wanted %d bytes): %v", e.Want, e.Err)
}

// Unwrap exposes the underlying read error for errors.Is.
func (e *FrameTruncatedError) Unwrap() error { return e.Err }

// frameConn reads and writes envelope frames over an arbitrary byte stream.
// Writes are mutex-guarded so a worker's heartbeat ticker and its result
// writes can share the connection; reads have a single owner by design (the
// coordinator's per-worker receive loop, or the worker's serve loop).
type frameConn struct {
	r  io.Reader
	w  io.Writer
	mu sync.Mutex // guards w
	// measureDecode makes read record each frame's decode timing below.
	// Only the worker's serve loop sets it (tracing lifts the numbers into
	// a decode span when a traced spec asks for one); the coordinator's
	// read loops stay free of the extra clock reads.
	measureDecode bool
	// decodeStart/decodeDur/decodeBytes describe the most recent frame's
	// decode: when it began (unix nanos), how long it took, and the frame
	// payload size. Valid only between read calls on the single-owner read
	// side, which is exactly how the serve loop consumes them.
	decodeStart int64
	decodeDur   time.Duration
	decodeBytes int64
}

func newFrameConn(r io.Reader, w io.Writer) *frameConn {
	return &frameConn{r: r, w: w}
}

// write sends one frame — 4-byte big-endian payload length, then the
// envelope — from a pooled scratch buffer. The buffer is fully flushed to
// the stream before it returns to the pool, so steady-state sends allocate
// nothing.
func (c *frameConn) write(env *envelope) error {
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	buf = append(buf, 0, 0, 0, 0) // length placeholder
	buf = appendEnvelope(buf, env)
	binary.BigEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, err := c.w.Write(buf); err != nil {
		return fmt.Errorf("worker: writing %v frame: %w", env.Kind, err)
	}
	return nil
}

// read receives the next frame. It returns io.EOF unwrapped when the stream
// ends cleanly between frames, so callers can distinguish a graceful close
// from a mid-frame cut (*FrameTruncatedError). The payload buffer is freshly
// allocated per frame and ownership passes to the decoded envelope — decoded
// specs/results hold zero-copy views into it.
func (c *frameConn) read() (*envelope, error) {
	var lenBuf [4]byte
	if _, err := io.ReadFull(c.r, lenBuf[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, &FrameTruncatedError{Want: len(lenBuf), Err: err}
	}
	n := binary.BigEndian.Uint32(lenBuf[:])
	if n > maxFrameSize {
		return nil, &FrameSizeError{Size: n, Max: maxFrameSize}
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(c.r, payload); err != nil {
		return nil, &FrameTruncatedError{Want: int(n), Err: err}
	}
	var t0 time.Time
	if c.measureDecode {
		t0 = time.Now()
		c.decodeStart = t0.UnixNano()
		c.decodeBytes = int64(n)
	}
	env, err := decodeEnvelope(payload)
	if err != nil {
		return nil, fmt.Errorf("worker: decoding frame: %w", err)
	}
	if c.measureDecode {
		c.decodeDur = time.Since(t0)
	}
	return env, nil
}

// String names the message kind in errors and logs.
func (k msgKind) String() string {
	switch k {
	case msgHello:
		return "hello"
	case msgTask:
		return "task"
	case msgResult:
		return "result"
	case msgHeartbeat:
		return "heartbeat"
	case msgDrain:
		return "drain"
	default:
		return fmt.Sprintf("msgKind(%d)", uint8(k))
	}
}
