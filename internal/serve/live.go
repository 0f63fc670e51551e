package serve

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/mapreduce"
	"repro/internal/query"
)

// The live-mode HTTP surface: mutation ingest and standing-query
// subscriptions. A subscription registers an SSD query with the live
// population (which maintains per-stratum reservoirs incrementally) and a
// push trigger — "every N mutations that touch the query". Pushes are
// delivered by long-poll (GET /v1/next?id=&after=); a
// slow consumer only ever sees the latest event (latest-wins), never an
// unbounded backlog, and resumes past the last push it read with ?after=.

// liveKey names a standing query inside the live population: the canonical
// query form plus the sampling seed, the same identity the result cache and
// single-flight batching use for ad-hoc queries.
func liveKey(canon string, seed int64) string {
	return fmt.Sprintf("%s|seed=%d", canon, seed)
}

// wireMutation is one mutation in the POST /v1/mutate body.
type wireMutation struct {
	Op    string  `json:"op"`              // insert, delete, update
	ID    int64   `json:"id"`              // required for delete; the tuple id otherwise
	Name  string  `json:"name,omitempty"`  // optional label (insert/update)
	Attrs []int64 `json:"attrs,omitempty"` // schema-ordered attributes (insert/update)
}

// mutateRequest is the POST /v1/mutate body: a single mutation's fields
// inline, or a batch under "mutations".
type mutateRequest struct {
	wireMutation
	Mutations []wireMutation `json:"mutations,omitempty"`
}

func (s *Server) handleMutate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if !s.cfg.Live {
		httpError(w, http.StatusBadRequest, "live mode disabled (start the daemon with -live)")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req mutateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	wire := req.Mutations
	if len(wire) == 0 {
		if req.Op == "" {
			httpError(w, http.StatusBadRequest, `missing mutations: set "op" or "mutations"`)
			return
		}
		wire = []wireMutation{req.wireMutation}
	}
	muts := make([]live.Mutation, len(wire))
	for i, m := range wire {
		op, err := live.ParseOp(m.Op)
		if err != nil {
			httpError(w, http.StatusBadRequest, "mutation %d: %v", i, err)
			return
		}
		muts[i] = live.Mutation{
			Op:    op,
			ID:    m.ID,
			Tuple: dataset.Tuple{ID: m.ID, Name: m.Name, Attrs: m.Attrs},
		}
	}
	trace := r.Header.Get("X-Strata-Trace")
	if trace == "" {
		trace = newTraceID()
	}
	w.Header().Set("X-Strata-Trace", trace)

	res := s.pop.Apply(muts)
	// The batch is applied; subscriptions whose mutation trigger is now due
	// push before the response goes out, so a client that mutates and then
	// long-polls observes its own write.
	s.hub.kick()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(res)
}

// subscribeRequest is the POST /v1/subscribe body: a query (same forms as
// /v1/sample) plus the push trigger: EveryMutations counts mutations that
// touched the query's strata, and zero means 1.
type subscribeRequest struct {
	sampleRequest
	EveryMutations int64 `json:"every_mutations,omitempty"`
}

func (s *Server) handleSubscribe(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Live {
		httpError(w, http.StatusBadRequest, "live mode disabled (start the daemon with -live)")
		return
	}
	switch r.Method {
	case http.MethodDelete:
		id := r.URL.Query().Get("id")
		if id == "" {
			httpError(w, http.StatusBadRequest, "missing id")
			return
		}
		if !s.hub.unsubscribe(id) {
			httpError(w, http.StatusNotFound, "unknown subscription %q", id)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(map[string]string{"unsubscribed": id})
		return
	case http.MethodPost:
	default:
		httpError(w, http.StatusMethodNotAllowed, "POST or DELETE only")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req subscribeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, cls, err := s.buildQuery(&req.sampleRequest)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	canon := canonicalSSD(q, cls)
	if req.EveryMutations < 0 {
		httpError(w, http.StatusBadRequest, "negative push trigger")
		return
	}
	if req.EveryMutations == 0 {
		req.EveryMutations = 1
	}
	key := liveKey(canon, seed)
	trace := r.Header.Get("X-Strata-Trace")
	if trace == "" {
		trace = newTraceID()
	}
	w.Header().Set("X-Strata-Trace", trace)

	sub, code, err := s.hub.add(key, q, seed, trace, req.EveryMutations)
	if err != nil {
		httpError(w, code, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{
		"subscription":    sub.id,
		"trace":           trace,
		"every_mutations": req.EveryMutations,
		"version":         s.pop.QueryVersion(key),
	})
}

// handleNext long-polls one push: it returns the first push with sequence
// greater than ?after= (default 0), waiting up to ?timeout_ms= (a base-10
// integer in [1, 120000]; default 30000) before answering 204 No Content. A
// closed subscription answers 410.
func (s *Server) handleNext(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.Live {
		httpError(w, http.StatusBadRequest, "live mode disabled (start the daemon with -live)")
		return
	}
	sub, after, ok := s.hub.lookup(w, r)
	if !ok {
		return
	}
	timeout := 30 * time.Second
	if q := r.URL.Query(); q.Has("timeout_ms") {
		ms := q.Get("timeout_ms")
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v <= 0 || v > 120_000 {
			httpError(w, http.StatusBadRequest, "bad timeout_ms %q", ms)
			return
		}
		timeout = time.Duration(v) * time.Millisecond
	}
	w.Header().Set("X-Strata-Trace", sub.trace)
	ev, status := sub.wait(r.Context(), after, timeout)
	switch status {
	case waitEvent:
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(ev)
	case waitClosed:
		httpError(w, http.StatusGone, "subscription closed")
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// pushEvent is one standing-query push, as delivered on the wire.
type pushEvent struct {
	Subscription string             `json:"subscription"`
	Seq          int64              `json:"seq"`     // push sequence, per subscription
	Version      int64              `json:"version"` // standing-query version at snapshot
	MutationSeq  int64              `json:"mutation_seq"`
	Trace        string             `json:"trace,omitempty"`
	Name         string             `json:"name"`
	Seed         int64              `json:"seed"`
	Strata       []stratumResult    `json:"strata"`
	Meta         []live.StratumMeta `json:"meta"`
}

// subscription is one registered push consumer over a standing query.
type subscription struct {
	id        string
	key       string
	q         *query.SSD
	seed      int64
	trace     string
	everyMuts int64

	mu      sync.Mutex
	lastVer int64 // standing-query version at the last push
	seq     int64
	latest  *pushEvent
	wake    chan struct{} // closed and replaced on each publish (and on close)
	closed  bool
}

type waitStatus int

const (
	waitEvent  waitStatus = iota // a push newer than `after` is available
	waitNone                     // nothing new within the timeout, or the client went away
	waitClosed                   // the subscription was closed
)

// wait blocks until a push with Seq > after exists, the timeout elapses, the
// subscription closes, or the request context ends.
func (sub *subscription) wait(ctx interface{ Done() <-chan struct{} }, after int64, timeout time.Duration) (*pushEvent, waitStatus) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		sub.mu.Lock()
		ev, wake, closed := sub.latest, sub.wake, sub.closed
		sub.mu.Unlock()
		if ev != nil && ev.Seq > after {
			return ev, waitEvent
		}
		if closed {
			return nil, waitClosed
		}
		select {
		case <-wake:
		case <-deadline.C:
			return nil, waitNone
		case <-ctx.Done():
			return nil, waitNone
		}
	}
}

// subHub owns the daemon's subscriptions: registration, mutation-triggered
// pushes (kick), and teardown on drain.
type subHub struct {
	s *Server

	mu   sync.Mutex
	subs map[string]*subscription
	// reserved counts admitted subscriptions still registering their
	// standing query; they hold a slot of the cap.
	reserved int
	closed   bool
}

const maxSubscriptions = 1024

func newSubHub(s *Server) *subHub {
	return &subHub{s: s, subs: make(map[string]*subscription)}
}

// add admits a subscription to the standing query key and registers the
// query with the population. Admission comes first: a subscription the cap
// or a drain refuses (503) registers nothing, since a registration is a scan
// under the write lock and the standing query is then maintained on every
// mutation. A registration the population refuses (409: the key is
// registered with another seed) gives the reserved slot back.
func (h *subHub) add(key string, q *query.SSD, seed int64, trace string, everyMuts int64) (*subscription, int, error) {
	buf := make([]byte, 8)
	if _, err := cryptorand.Read(buf); err != nil {
		return nil, http.StatusInternalServerError, err
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("draining")
	}
	if len(h.subs)+h.reserved >= maxSubscriptions {
		h.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("too many subscriptions (%d)", maxSubscriptions)
	}
	h.reserved++
	h.mu.Unlock()

	_, err := h.s.pop.Register(key, q, seed)
	sub := &subscription{
		id: hex.EncodeToString(buf), key: key, q: q, seed: seed, trace: trace,
		everyMuts: everyMuts,
		lastVer:   h.s.pop.QueryVersion(key),
		wake:      make(chan struct{}),
	}
	h.mu.Lock()
	h.reserved--
	switch {
	case err != nil:
		h.mu.Unlock()
		return nil, http.StatusConflict, err
	case h.closed: // drained while registering; the query may be shared, so it stays
		h.mu.Unlock()
		return nil, http.StatusServiceUnavailable, fmt.Errorf("draining")
	}
	h.subs[sub.id] = sub
	h.mu.Unlock()
	h.s.stats.add(&h.s.stats.Subscriptions, 1)
	return sub, http.StatusOK, nil
}

// lookup resolves the ?id= and ?after= query params of a delivery endpoint,
// writing the error response itself when they don't resolve: after, when
// present, must be a base-10 integer and nothing else.
func (h *subHub) lookup(w http.ResponseWriter, r *http.Request) (*subscription, int64, bool) {
	id := r.URL.Query().Get("id")
	if id == "" {
		httpError(w, http.StatusBadRequest, "missing id")
		return nil, 0, false
	}
	h.mu.Lock()
	sub, ok := h.subs[id]
	h.mu.Unlock()
	if !ok {
		httpError(w, http.StatusNotFound, "unknown subscription %q", id)
		return nil, 0, false
	}
	after := int64(0)
	if q := r.URL.Query(); q.Has("after") {
		var err error
		if after, err = strconv.ParseInt(q.Get("after"), 10, 64); err != nil {
			httpError(w, http.StatusBadRequest, "bad after %q", q.Get("after"))
			return nil, 0, false
		}
	}
	return sub, after, true
}

func (h *subHub) unsubscribe(id string) bool {
	h.mu.Lock()
	sub, ok := h.subs[id]
	delete(h.subs, id)
	h.mu.Unlock()
	if !ok {
		return false
	}
	h.closeSub(sub)
	h.s.stats.add(&h.s.stats.Subscriptions, -1)
	// The standing query itself stays registered: other subscribers (and warm
	// /v1/sample hits) may share it, and keeping it maintained is O(sample)
	// per mutation.
	return true
}

// closeSub marks the subscription closed and releases every waiter.
func (h *subHub) closeSub(sub *subscription) {
	sub.mu.Lock()
	if !sub.closed {
		sub.closed = true
		close(sub.wake)
		sub.wake = make(chan struct{})
	}
	sub.mu.Unlock()
}

// close tears down every subscription (drain).
func (h *subHub) close() {
	h.mu.Lock()
	h.closed = true
	subs := make([]*subscription, 0, len(h.subs))
	for _, sub := range h.subs {
		subs = append(subs, sub)
	}
	h.subs = make(map[string]*subscription)
	h.mu.Unlock()
	for _, sub := range subs {
		h.closeSub(sub)
		h.s.stats.add(&h.s.stats.Subscriptions, -1)
	}
}

// kick runs after every applied mutation batch: each subscription whose
// mutation trigger is due publishes a fresh snapshot.
func (h *subHub) kick() {
	h.mu.Lock()
	subs := make([]*subscription, 0, len(h.subs))
	for _, sub := range h.subs {
		subs = append(subs, sub)
	}
	h.mu.Unlock()
	for _, sub := range subs {
		h.maybePush(sub)
	}
}

// maybePush publishes a snapshot when the subscription's trigger is due: the
// standing query's version advanced by everyMuts since the last push.
// Publication is latest-wins: the new event replaces the previous one and
// every waiter is woken. The push latency recorded is trigger-to-publication.
func (h *subHub) maybePush(sub *subscription) {
	start := time.Now()
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	if ver := h.s.pop.QueryVersion(sub.key); ver-sub.lastVer < sub.everyMuts {
		return
	}
	ans, metas, ver, ok := h.s.pop.Snapshot(sub.key)
	if !ok { // standing query vanished (not expected in practice)
		return
	}
	sub.seq++
	sub.latest = &pushEvent{
		Subscription: sub.id,
		Seq:          sub.seq,
		Version:      ver,
		MutationSeq:  h.s.pop.Seq(),
		Trace:        sub.trace,
		Name:         sub.q.Name,
		Seed:         sub.seed,
		Strata:       renderStrata(sub.q, ans),
		Meta:         metas,
	}
	sub.lastVer = ver
	close(sub.wake)
	sub.wake = make(chan struct{})
	h.s.stats.observePush(time.Since(start))
	h.emitPushTrace(sub, start)
}

// emitPushTrace emits one span per push under the subscription's trace — the
// same threading /v1/sample requests get, so a merged trace shows pushes next
// to the mutations that caused them.
func (h *subHub) emitPushTrace(sub *subscription, start time.Time) {
	tr := h.s.cfg.Tracer
	if tr == nil || sub.trace == "" {
		return
	}
	run := fmt.Sprintf("push%d", sub.seq)
	tr.Emit(mapreduce.Span{
		Job: "serve", Phase: "push", Trace: sub.trace, Run: run,
		ID:     mapreduce.SpanID(sub.trace, run, "serve", "push", "0", "0"),
		Parent: requestSpanID(sub.trace),
		Start:  start.Sub(h.s.started),
		Wall:   time.Since(start),
	})
}
