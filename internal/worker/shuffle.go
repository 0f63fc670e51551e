package worker

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/wire"
)

// The direct shuffle data plane: every worker runs a shuffleReceiver — a
// loopback listener speaking length-prefixed frames — and
// map attempts push each bucket straight to the endpoint of the reducer that
// will consume it. The coordinator never touches the bytes; it only hands out
// the (worker, endpoint) assignment in a ShufflePlan and keeps the routed path
// as fallback for buckets that could not be delivered or were lost with a
// crashed worker.

// shuffle frame header: session length, map task, reducer, payload length —
// four big-endian int32s, followed by the session string and the payload. One
// worker pool serves many job runs back to back, so the session field
// namespaces buckets per run to never mix payloads.
const shuffleHeaderSize = 16

// maxShuffleSessionLen bounds the session string of one frame.
const maxShuffleSessionLen = 1 << 10

// shuffleHeader is one parsed bucket-frame header.
type shuffleHeader struct {
	sessLen, task, reducer, size int
}

// parseShuffleHeader decodes a frame header off the socket. ok is false for
// lengths no sender produces, so the reader never allocates more than
// maxShuffleSessionLen + maxFrameSize on a peer's say-so.
func parseShuffleHeader(b *[shuffleHeaderSize]byte) (h shuffleHeader, ok bool) {
	h = shuffleHeader{
		sessLen: int(int32(binary.BigEndian.Uint32(b[0:]))),
		task:    int(int32(binary.BigEndian.Uint32(b[4:]))),
		reducer: int(int32(binary.BigEndian.Uint32(b[8:]))),
		size:    int(int32(binary.BigEndian.Uint32(b[12:]))),
	}
	ok = h.sessLen > 0 && h.sessLen <= maxShuffleSessionLen && h.size >= 0 && h.size <= maxFrameSize
	return h, ok
}

// maxShuffleSessions bounds how many job runs' buckets one receiver retains
// at a time. Completed reducers free their buckets eagerly; the LRU eviction
// here is the backstop for sessions that never complete on this worker (a
// fallback took over), so an abandoned shuffle cannot grow worker memory
// without bound.
const maxShuffleSessions = 4

// shuffleSession holds one job run's received buckets: reducer → map task →
// payload.
type shuffleSession struct {
	buckets map[int]map[int][]byte
}

// shuffleReceiver accepts bucket pushes from peer workers and hands them to
// this worker's reduce attempts. Re-sends overwrite (last write wins): a
// re-executed map attempt produces byte-identical buckets, so duplicate
// delivery is harmless.
type shuffleReceiver struct {
	ln net.Listener

	mu       sync.Mutex
	cond     *sync.Cond
	sessions map[string]*shuffleSession
	order    []string // LRU order, most recently used last
	closed   bool

	wg      sync.WaitGroup
	closing chan struct{}
}

// newShuffleReceiver starts a loopback listener and its accept loop. Loopback
// matches the rest of the repo's single-machine cluster model; a worker on
// another machine would announce an address its peers cannot dial, sends to it
// would fail, and the engine's routed fallback still completes the job.
func newShuffleReceiver() (*shuffleReceiver, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("worker: starting shuffle receiver: %w", err)
	}
	s := &shuffleReceiver{
		ln:       ln,
		sessions: make(map[string]*shuffleSession),
		closing:  make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// addr is the endpoint peers dial, announced in the worker's hello frame.
func (s *shuffleReceiver) addr() string { return s.ln.Addr().String() }

func (s *shuffleReceiver) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serve(conn)
	}
}

// serve reads bucket frames off one peer connection until it closes. A
// malformed frame only drops this connection: the sender sees the write fail,
// retains the bucket, and the routed fallback covers it.
func (s *shuffleReceiver) serve(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()
	var header [shuffleHeaderSize]byte
	for {
		if _, err := io.ReadFull(conn, header[:]); err != nil {
			return
		}
		h, ok := parseShuffleHeader(&header)
		if !ok {
			return
		}
		body := make([]byte, h.sessLen+h.size)
		if _, err := io.ReadFull(conn, body); err != nil {
			return
		}
		s.store(string(body[:h.sessLen]), h.task, h.reducer, body[h.sessLen:])
	}
}

// store files one received bucket and wakes waiting reduce attempts.
func (s *shuffleReceiver) store(session string, task, reducer int, payload []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	sess := s.touch(session)
	if sess.buckets[reducer] == nil {
		sess.buckets[reducer] = make(map[int][]byte)
	}
	sess.buckets[reducer][task] = payload
	s.cond.Broadcast()
}

// touch returns the session, creating it (and evicting the least recently
// used one beyond maxShuffleSessions) as needed. Callers hold s.mu.
func (s *shuffleReceiver) touch(session string) *shuffleSession {
	if sess, ok := s.sessions[session]; ok {
		for i, name := range s.order {
			if name == session {
				s.order = append(append(s.order[:i:i], s.order[i+1:]...), session)
				break
			}
		}
		return sess
	}
	for len(s.order) >= maxShuffleSessions {
		oldest := s.order[0]
		s.order = s.order[1:]
		delete(s.sessions, oldest)
	}
	sess := &shuffleSession{buckets: make(map[int]map[int][]byte)}
	s.sessions[session] = sess
	s.order = append(s.order, session)
	return sess
}

// receive blocks until every map task listed in need has delivered reducer's
// bucket for the session, then returns them. On deadline expiry it returns a
// *mapreduce.ReceiveTimeoutError naming the first missing map task, which the
// serve loop reports as a lost shuffle (the coordinator then falls back to
// the routed path).
func (s *shuffleReceiver) receive(session string, reducer int, need []int, timeout time.Duration) (map[int][]byte, error) {
	if timeout <= 0 {
		timeout = 15 * time.Second
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	expired := false
	timer := time.AfterFunc(timeout, func() {
		s.mu.Lock()
		expired = true
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	defer timer.Stop()
	for {
		sess := s.sessions[session]
		missing := -1
		for _, t := range need {
			if sess == nil || sess.buckets[reducer][t] == nil {
				missing = t
				break
			}
		}
		if missing < 0 {
			got := make(map[int][]byte, len(need))
			for _, t := range need {
				got[t] = sess.buckets[reducer][t]
			}
			return got, nil
		}
		if s.closed {
			return nil, fmt.Errorf("worker: shuffle receiver closed while reducer %d waited for map task %d", reducer, missing)
		}
		if expired {
			return nil, &mapreduce.ReceiveTimeoutError{Reducer: reducer, Task: missing, Timeout: timeout}
		}
		s.cond.Wait()
	}
}

// forget drops a completed reducer's buckets (and its session once empty), so
// a long-lived worker's memory tracks in-flight work, not job history.
func (s *shuffleReceiver) forget(session string, reducer int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess := s.sessions[session]
	if sess == nil {
		return
	}
	delete(sess.buckets, reducer)
	if len(sess.buckets) == 0 {
		delete(s.sessions, session)
		for i, name := range s.order {
			if name == session {
				s.order = append(s.order[:i:i], s.order[i+1:]...)
				break
			}
		}
	}
}

// close stops the listener, fails waiting receives and releases all buckets.
func (s *shuffleReceiver) close() {
	s.mu.Lock()
	s.closed = true
	s.sessions = make(map[string]*shuffleSession)
	s.order = nil
	s.cond.Broadcast()
	s.mu.Unlock()
	s.ln.Close()
	s.wg.Wait()
}

// appendShuffleFrame renders one bucket push into buf: header, session,
// payload.
func appendShuffleFrame(buf []byte, session string, task, reducer int, payload []byte) []byte {
	start := len(buf)
	buf = append(buf, make([]byte, shuffleHeaderSize)...)
	binary.BigEndian.PutUint32(buf[start+0:], uint32(len(session)))
	binary.BigEndian.PutUint32(buf[start+4:], uint32(task))
	binary.BigEndian.PutUint32(buf[start+8:], uint32(reducer))
	binary.BigEndian.PutUint32(buf[start+12:], uint32(len(payload)))
	buf = append(buf, session...)
	return append(buf, payload...)
}

// shuffleSendGroup dials one peer and streams all of a map attempt's buckets
// destined for it over the single connection — one dial per destination
// worker, not per bucket, and one pooled scratch buffer reused across all
// its frames. It returns the reducers whose frames were fully written and
// the wire bytes moved; on an error the unwritten buckets stay with the
// caller, which retains them for the routed fallback.
func shuffleSendGroup(endpoint, session string, task int, reducers []int, buckets [][]byte) (sent []int, n int, err error) {
	conn, err := net.Dial("tcp", endpoint)
	if err != nil {
		return nil, 0, fmt.Errorf("worker: dialing shuffle endpoint %s: %w", endpoint, err)
	}
	defer conn.Close()
	buf := wire.GetBuffer()
	defer wire.PutBuffer(buf)
	for _, r := range reducers {
		buf = appendShuffleFrame(buf[:0], session, task, r, buckets[r])
		if _, werr := conn.Write(buf); werr != nil {
			return sent, n, fmt.Errorf("worker: pushing bucket to %s: %w", endpoint, werr)
		}
		n += len(buf)
		sent = append(sent, r)
	}
	return sent, n, nil
}
