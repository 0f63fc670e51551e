package serve

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/live"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
)

// Config configures a sampling daemon.
type Config struct {
	// Population is the resident relation queries sample from. Required.
	// NewServer cuts it into splits that share its rows and keeps nothing
	// else of it; the daemon never writes it (a live daemon edits copies of
	// the splits it mutates).
	Population *dataset.Relation
	// Slaves is the simulated cluster width per pass (as in the CLI's
	// -slaves). Defaults to 4.
	Slaves int
	// Splits is the number of partition splits; 0 means
	// dataset.DefaultSplits(Slaves) — max(2*Slaves, 2*GOMAXPROCS), the same
	// default "strata sample" uses, so lone-query answers stay byte-identical
	// between the daemon and the one-shot CLI. A resident population is
	// re-cut to this count at load regardless of how the input was laid out,
	// so every pass has enough map tasks to saturate the machine.
	Splits int
	// Layout partitions the population across splits. The zero value is
	// dataset.RoundRobin; "strata serve" passes its -layout flag (default
	// contiguous, matching "strata sample").
	Layout dataset.Partitioning
	// PartitionSeed seeds layout randomization (shuffled layouts) — use the
	// same value as the CLI's -seed to reproduce its partitioning.
	PartitionSeed int64

	// Window is the batching window: queries arriving within it coalesce
	// into one pass, which fires early at maxBatch distinct queries. Zero
	// runs one pass per query (no batching).
	Window time.Duration
	// AdaptiveWindow makes the window work-conserving: a batch opened with
	// none in flight fires at once, and a batch collecting behind running
	// passes fires as soon as the last of them finishes, so Window only
	// bounds how long a query may queue behind running work. While batches
	// that had company run Window or longer — a batch-mate is then likely
	// and saves more than the wait costs — and always when false, the window
	// is strict: every batch waits out Window (or fills to maxBatch).
	AdaptiveWindow bool
	// QuotaQPS and QuotaBurst configure the per-tenant token bucket
	// (tokens/second and bucket capacity). QuotaQPS <= 0 disables quotas.
	QuotaQPS   float64
	QuotaBurst int

	// Live makes the population mutable: POST /v1/mutate ingests a mutation
	// log, POST /v1/subscribe registers standing queries with push triggers
	// (delivered on /v1/next), a /v1/sample matching a
	// registered query answers warm from its incrementally maintained
	// reservoirs, POST /v1/epoch also rebalances the splits, and /v1/stats and
	// /metrics carry the live counters. It does not change how a pass reads
	// the population: every daemon serves from one live.Population, and
	// without Live nothing mutates it. Mutations move the ad-hoc result
	// cache's epoch through the mutation sequence, so any mutation
	// invalidates it.
	Live bool
	// StalenessBound caps uncompensated deletions per stratum reservoir
	// before a repair rescan; 0 takes the live subsystem's default (64).
	// Only meaningful with Live.
	StalenessBound int

	// NewCluster builds the per-pass cluster; the CLI injects its
	// observability-wired factory here. Defaults to mapreduce.NewCluster.
	NewCluster func(slaves int) *mapreduce.Cluster
	// OnMetrics, when set, receives each pass's engine metrics (the CLI
	// routes them to the global /metrics accumulator).
	OnMetrics func(mapreduce.Metrics)
	// Tracer, when set and enabled, receives the daemon's own spans —
	// request, window, cache, batch, pass, demux — and threads a
	// TraceContext into every pass cluster so the engine's distributed spans
	// join the same trace. Nil (the default) keeps the request path free of
	// span work; trace ids are still minted and echoed so clients can
	// correlate requests either way.
	Tracer mapreduce.Tracer
}

// Server is the resident sampling daemon: it keeps a partitioned population
// in memory and answers SSD sampling queries over HTTP, coalescing
// concurrent queries into shared MapReduce passes.
//
// Endpoints:
//
//	POST /v1/sample    submit a query ({"query": "cond : freq ; ...",
//	                   "seed": 1}) and block for the answer
//	GET  /v1/stats     service counters as JSON
//	POST /v1/epoch     bump the population epoch; returns the new epoch and
//	                   how many cached answers the bump dropped
//	POST /v1/mutate    (live mode) apply a mutation-log batch
//	POST /v1/subscribe (live mode) register a standing query with a push
//	                   trigger; DELETE with ?id= unsubscribes
//	GET  /v1/next      (live mode) long-poll one push (?id=&after=)
//	GET  /metrics      engine + service metrics, Prometheus text format
//	GET  /healthz      liveness: population size, epoch, draining flag
type Server struct {
	cfg     Config
	schema  *dataset.Schema
	stats   *Stats
	cache   *resultCache
	quotas  *quotaTable
	batcher *batcher
	mux     *http.ServeMux

	// pop is the resident population: the splits and their column mirrors.
	// Only a Live daemon mutates it; hub, its subscription hub, is nil
	// otherwise.
	pop *live.Population
	hub *subHub

	epoch    atomic.Int64
	draining atomic.Bool
	started  time.Time

	metMu sync.Mutex
	met   mapreduce.Metrics
}

// NewServer partitions the population into a live.Population — which mirrors
// every split's attributes column-major for the stratum scan — and returns a
// ready daemon.
// It does not listen; mount Handler() on an http.Server.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Population == nil {
		return nil, fmt.Errorf("serve: Config.Population is required")
	}
	if cfg.Slaves <= 0 {
		cfg.Slaves = 4
	}
	if cfg.Splits <= 0 {
		cfg.Splits = dataset.DefaultSplits(cfg.Slaves)
	}
	if cfg.NewCluster == nil {
		cfg.NewCluster = mapreduce.NewCluster
	}

	// Partition seeding mirrors "strata sample" (rand.New(rand.NewSource(seed)))
	// so a daemon started with the same parameters partitions identically and
	// singleton-pass answers match the one-shot CLI byte for byte.
	splits, err := dataset.Partition(cfg.Population, cfg.Splits, cfg.Layout, rand.New(rand.NewSource(cfg.PartitionSeed)))
	if err != nil {
		return nil, fmt.Errorf("serve: partitioning population: %w", err)
	}
	schema := cfg.Population.Schema()
	cfg.Population = nil // the splits are all the daemon keeps of it
	s := &Server{
		cfg:     cfg,
		schema:  schema,
		stats:   newStats(),
		cache:   newResultCache(cacheSize),
		started: time.Now(),
	}
	if cfg.QuotaQPS > 0 {
		s.quotas = newQuotaTable(cfg.QuotaQPS, cfg.QuotaBurst)
	}
	s.epoch.Store(1)
	// One cluster, built once: the factory wires the tracer and above all
	// the Executor handle (a dialed, handshaken worker pool), and a pass
	// runs on a value copy, so concurrent passes share that wiring and
	// nothing else. A pass carries a trace identity only when its batch is
	// traced, never the factory's.
	cluster := cfg.NewCluster(cfg.Slaves)
	cluster.TraceContext = nil
	s.pop, err = live.NewPopulation(s.schema, splits, live.Config{StalenessBound: cfg.StalenessBound})
	if err != nil {
		return nil, fmt.Errorf("serve: resident population: %w", err)
	}
	if cfg.Live {
		s.hub = newSubHub(s)
	}
	exec := &executor{
		schema:    s.schema,
		pop:       s.pop,
		cluster:   cluster,
		onMetrics: s.recordMetrics,
		cache:     s.cache,
		stats:     s.stats,
		tracer:    cfg.Tracer,
		base:      s.started,
		sem:       make(chan struct{}, maxPasses()),
	}
	s.batcher = &batcher{window: cfg.Window, adaptive: cfg.AdaptiveWindow, epoch: s.effectiveEpoch, exec: exec, stats: s.stats}

	mux := http.NewServeMux()
	mux.HandleFunc("/v1/sample", s.handleSample)
	mux.HandleFunc("/v1/stats", s.handleStats)
	mux.HandleFunc("/v1/epoch", s.handleEpoch)
	mux.HandleFunc("/v1/mutate", s.handleMutate)
	mux.HandleFunc("/v1/subscribe", s.handleSubscribe)
	mux.HandleFunc("/v1/next", s.handleNext)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux = mux
	return s, nil
}

// effectiveEpoch is the cache epoch ad-hoc answers are keyed on: the
// administrative epoch plus the mutation sequence (zero unless Live). Both
// terms are monotonic, so the sum is monotonic — any mutation moves every
// future answer to a fresh key, invalidating cached ad-hoc results without
// touching the warm standing-query path (which never uses this cache).
func (s *Server) effectiveEpoch() int64 {
	return s.epoch.Load() + s.pop.Seq()
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Stats exposes the service counters (for tests and the load generator). In
// live mode the snapshot carries the live subsystem's own counters too.
// Reading it moves the result cache to the current effective epoch, so
// CacheEntries never counts answers a mutation has superseded.
func (s *Server) Stats() Snapshot {
	entries := s.cacheEntries()
	snap := s.stats.snapshot()
	snap.CacheEntries = entries
	if s.cfg.Live {
		ls := s.pop.Stats()
		snap.Live = &ls
	}
	rows, columns := s.pop.ResidentBytes()
	snap.ResidentBytes = map[string]int64{"rows": rows, "columns": columns}
	return snap
}

// bumpEpoch advances the population epoch and moves the result cache to the
// new effective epoch, which drops every answer it held, and reports how many
// that was, recording both in the stats. It models an administrative
// invalidation boundary (in live mode, each mutation moves the effective
// epoch too).
func (s *Server) bumpEpoch() (int64, int) {
	e := s.epoch.Add(1)
	n := s.cache.advance(s.effectiveEpoch())
	s.stats.addCachePurge(n)
	return e, n
}

// cacheEntries moves the cache to the current effective epoch, so it counts
// only answers a request can still be served, and reports how many it holds.
func (s *Server) cacheEntries() int64 {
	s.stats.addCacheDropped(s.cache.advance(s.effectiveEpoch()))
	return int64(s.cache.len())
}

// BeginDrain makes every subsequent submission fail with 503, fires the
// collecting batch immediately so blocked requests resolve fast, and closes
// every subscription, so each long-poll waiting on one answers 410.
func (s *Server) BeginDrain() {
	s.draining.Store(true)
	s.batcher.flush()
	if s.hub != nil {
		s.hub.close()
	}
}

// Drain waits for every in-flight pass to finish. Call after BeginDrain and
// after the HTTP server stopped accepting connections.
func (s *Server) Drain() { s.batcher.drain() }

// recordMetrics accumulates pass metrics for /metrics and forwards them to
// the configured sink.
func (s *Server) recordMetrics(m mapreduce.Metrics) {
	s.metMu.Lock()
	s.met.Add(m)
	s.metMu.Unlock()
	if s.cfg.OnMetrics != nil {
		s.cfg.OnMetrics(m)
	}
}

// sampleRequest is the JSON body of POST /v1/sample. The query can be given
// either as the CLI text form ("query") or as structured strata; "seed"
// defaults to 1, matching "strata sample". A body naming any other field is
// refused (decodeBody).
type sampleRequest struct {
	Name   string `json:"name,omitempty"`
	Query  string `json:"query,omitempty"`
	Strata []struct {
		Cond string `json:"cond"`
		Freq int    `json:"freq"`
	} `json:"strata,omitempty"`
	Seed    *int64 `json:"seed,omitempty"`
	NoCache bool   `json:"nocache,omitempty"`
}

// stratumResult is one stratum of an answer.
type stratumResult struct {
	Stratum     int      `json:"stratum"` // 1-based, like the CLI output
	Cond        string   `json:"cond"`
	Freq        int      `json:"freq"`
	Count       int      `json:"count"`
	Individuals []string `json:"individuals"`
}

// sampleResponse is the JSON answer of POST /v1/sample.
// Live/Version/LiveMeta appear only on answers served warm from a standing
// query's reservoirs.
type sampleResponse struct {
	Name      string             `json:"name"`
	Seed      int64              `json:"seed"`
	Epoch     int64              `json:"epoch"`
	Cached    bool               `json:"cached"`
	Live      bool               `json:"live,omitempty"`
	Version   int64              `json:"version,omitempty"`
	Trace     string             `json:"trace,omitempty"`
	Strata    []stratumResult    `json:"strata"`
	LiveMeta  []live.StratumMeta `json:"live_meta,omitempty"`
	ElapsedUS int64              `json:"elapsed_us"`
}

// newTraceID mints a random 64-bit trace id in hex. Collisions across a
// daemon's lifetime are astronomically unlikely at any realistic query rate.
func newTraceID() string {
	var b [8]byte
	if _, err := cryptorand.Read(b[:]); err != nil {
		return "t-0" // never in practice; keeps the request path infallible
	}
	return hex.EncodeToString(b[:])
}

// requestSpanID is the root span id of one request's trace.
func requestSpanID(trace string) uint64 {
	return mapreduce.SpanID(trace, "req", "serve", "request", "0", "0")
}

func (s *Server) handleSample(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	var req sampleRequest
	if !decodeBody(w, r, &req) {
		return
	}
	q, cls, err := s.buildQuery(&req)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := r.Header.Get("X-Strata-Tenant")
	if charged, ok := s.quotas.allow(tenant); !ok {
		s.stats.addRejected(charged)
		httpError(w, http.StatusTooManyRequests, "tenant %q over quota", tenant)
		return
	}
	seed := int64(1)
	if req.Seed != nil {
		seed = *req.Seed
	}
	canon := canonicalSSD(q, cls)
	s.stats.add(&s.stats.Queries, 1)
	start := time.Now()
	epoch := s.effectiveEpoch()

	// Every request gets a trace id — the client's own (X-Strata-Trace) or a
	// fresh one — echoed in the response header and body so a caller can
	// always correlate an answer with the daemon's span file.
	trace := r.Header.Get("X-Strata-Trace")
	if trace == "" {
		trace = newTraceID()
	}
	w.Header().Set("X-Strata-Trace", trace)
	reqSpan := requestSpanID(trace)

	// A query matching a registered standing query answers warm from its
	// incrementally maintained reservoirs: no pass, no cache, always current.
	if s.cfg.Live {
		if ans, metas, ver, ok := s.pop.Snapshot(liveKey(canon, seed)); ok {
			s.stats.add(&s.stats.LiveHits, 1)
			s.respondLive(w, q, seed, epoch, trace, ans, metas, ver, start)
			s.emitRequestTrace(trace, reqSpan, start, 0, nil)
			return
		}
	}

	var cacheDur time.Duration
	if !req.NoCache {
		t0 := time.Now()
		ans, ok, dropped := s.cache.get(epoch, cacheKey{canon: canon, seed: seed})
		cacheDur = time.Since(t0)
		s.stats.addCacheDropped(dropped)
		if ok {
			s.stats.add(&s.stats.CacheHits, 1)
			s.respond(w, q, seed, epoch, trace, ans, true, start)
			s.emitRequestTrace(trace, reqSpan, start, cacheDur, nil)
			return
		}
		s.stats.add(&s.stats.CacheMisses, 1)
	}

	e := s.batcher.submit(q, canon, seed, trace, reqSpan)
	select {
	case <-e.done:
	case <-r.Context().Done():
		// The client hung up. If its batch is still collecting — queued
		// behind a running pass — it leaves without buying one; once fired
		// the pass runs regardless and its answer still reaches the cache
		// (unless the epoch moved meanwhile).
		if s.batcher.abandon(e) {
			return
		}
		<-e.done
	}
	if e.err != nil {
		httpError(w, http.StatusInternalServerError, "%v", e.err)
		return
	}
	s.stats.observeAttribution(e.firedAt.Sub(start), e.passStart.Sub(e.firedAt), e.passEnd.Sub(e.passStart))
	s.respond(w, q, seed, epoch, trace, e.ans, false, start)
	s.emitRequestTrace(trace, reqSpan, start, cacheDur, e)
}

// emitRequestTrace emits the request-level spans once the answer went out:
// the request root span, its cache-lookup child, and (for requests that rode
// a batch) the window child covering admission-to-fire. Batch, pass and
// engine spans are emitted by the batcher's executor under the same trace.
func (s *Server) emitRequestTrace(trace string, reqSpan uint64, start time.Time, cacheDur time.Duration, e *entry) {
	tr := s.cfg.Tracer
	if tr == nil || trace == "" {
		return
	}
	startOff := start.Sub(s.started)
	if cacheDur > 0 {
		tr.Emit(mapreduce.Span{
			Job: "serve", Phase: "cache", Trace: trace, Run: "req",
			ID:     mapreduce.SpanID(trace, "req", "serve", "cache", "0", "0"),
			Parent: reqSpan, Start: startOff, Wall: cacheDur,
		})
	}
	if e != nil && !e.firedAt.IsZero() {
		tr.Emit(mapreduce.Span{
			Job: "serve", Phase: "window", Trace: trace, Run: "req",
			ID:     mapreduce.SpanID(trace, "req", "serve", "window", "0", "0"),
			Parent: reqSpan, Start: startOff, Wall: e.firedAt.Sub(start),
		})
	}
	tr.Emit(mapreduce.Span{
		Job: "serve", Phase: "request", Trace: trace, Run: "req",
		ID: reqSpan, Start: startOff, Wall: time.Since(start),
	})
}

// buildQuery assembles and validates the SSD from either request form,
// returning it with the classifier validation lowered it to.
func (s *Server) buildQuery(req *sampleRequest) (*query.SSD, *predicate.Classifier, error) {
	name := req.Name
	if name == "" {
		name = "Q"
	}
	var q *query.SSD
	switch {
	case req.Query != "" && len(req.Strata) > 0:
		return nil, nil, fmt.Errorf(`give either "query" or "strata", not both`)
	case req.Query != "":
		var err error
		q, err = query.ParseSSD(name, req.Query)
		if err != nil {
			return nil, nil, err
		}
	case len(req.Strata) > 0:
		q = &query.SSD{Name: name, Strata: make([]query.Stratum, len(req.Strata))}
		for i, st := range req.Strata {
			cond, err := predicate.Parse(st.Cond)
			if err != nil {
				return nil, nil, fmt.Errorf("query %s stratum %d: %w", name, i, err)
			}
			q.Strata[i] = query.Stratum{Cond: cond, Freq: st.Freq}
		}
	default:
		return nil, nil, fmt.Errorf(`missing query: set "query" (text form) or "strata"`)
	}
	cls, err := q.ValidClassifier(s.schema)
	if err != nil {
		return nil, nil, err
	}
	return q, cls, nil
}

func (s *Server) respond(w http.ResponseWriter, q *query.SSD, seed, epoch int64, trace string, ans *query.Answer, cached bool, start time.Time) {
	s.writeResponse(w, buildSampleResponse(q, seed, epoch, trace, ans, cached, start))
}

// respondLive answers from a standing query's warm reservoirs, attaching the
// query version and per-stratum maintenance metadata.
func (s *Server) respondLive(w http.ResponseWriter, q *query.SSD, seed, epoch int64, trace string, ans *query.Answer, metas []live.StratumMeta, version int64, start time.Time) {
	resp := buildSampleResponse(q, seed, epoch, trace, ans, false, start)
	resp.Live = true
	resp.Version = version
	resp.LiveMeta = metas
	s.writeResponse(w, resp)
}

func buildSampleResponse(q *query.SSD, seed, epoch int64, trace string, ans *query.Answer, cached bool, start time.Time) *sampleResponse {
	resp := &sampleResponse{
		Name: q.Name, Seed: seed, Epoch: epoch, Cached: cached, Trace: trace,
		Strata:    renderStrata(q, ans),
		ElapsedUS: time.Since(start).Microseconds(),
	}
	return resp
}

// renderStrata renders an answer in the response's stratum shape (shared with
// subscription push events).
func renderStrata(q *query.SSD, ans *query.Answer) []stratumResult {
	out := make([]stratumResult, len(q.Strata))
	for k, st := range q.Strata {
		individuals := make([]string, len(ans.Strata[k]))
		for i, t := range ans.Strata[k] {
			individuals[i] = t.String()
		}
		out[k] = stratumResult{
			Stratum: k + 1, Cond: st.Cond.String(), Freq: st.Freq,
			Count: len(individuals), Individuals: individuals,
		}
	}
	return out
}

func (s *Server) writeResponse(w http.ResponseWriter, resp *sampleResponse) {
	w.Header().Set("Content-Type", "application/json")
	t0 := time.Now()
	json.NewEncoder(w).Encode(resp)
	// Encode-and-write time is the "wire" share of the answer's latency.
	s.stats.observeWire(time.Since(t0))
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s.Stats()); err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
	}
}

func (s *Server) handleEpoch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// In live mode an epoch bump doubles as split compaction: round-robin
	// inserts and swap-removes drift the resident splits unbalanced, so re-cut
	// them into even shards before bumping. Rebalance first, bump second — the
	// bump empties the answer cache, which must cover the post-rebalance
	// boundaries (a re-cut changes per-split draws). A static daemon never
	// re-cuts, so its splits keep matching "strata sample"'s layout.
	var rebalanced int64
	if s.cfg.Live {
		rebalanced = int64(s.pop.Rebalance(s.cfg.Splits))
	}
	e, purged := s.bumpEpoch()
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]int64{"epoch": e, "purged": int64(purged), "rebalanced": rebalanced})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metMu.Lock()
	var m mapreduce.Metrics
	m.Add(s.met)
	s.metMu.Unlock()
	m.Job = "serve"
	if err := m.WritePrometheus(w); err != nil {
		return
	}
	entries := s.cacheEntries()
	pw := mapreduce.NewPromWriter(w)
	s.stats.writePrometheus(pw)
	if s.cfg.Live {
		s.pop.WritePrometheus(pw)
	}
	rows, columns := s.pop.ResidentBytes()
	pw.Family("strata_serve_resident_bytes", "gauge", "Memory the resident population occupies, by layout.")
	pw.Sample("strata_serve_resident_bytes", rows, "layout", "rows")
	pw.Sample("strata_serve_resident_bytes", columns, "layout", "columns")
	pw.Family("strata_serve_cache_entries", "gauge", "Answers the result cache holds, all at the current effective epoch.")
	pw.Sample("strata_serve_cache_entries", entries)
	pw.BuildInfo(s.started)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	body := map[string]any{
		"status":     "ok",
		"population": s.pop.Len(),
		"splits":     s.pop.Splits(),
		"epoch":      s.epoch.Load(),
		"draining":   s.draining.Load(),
	}
	if s.cfg.Live {
		body["live"] = true
		body["mutation_seq"] = s.pop.Seq()
		body["staleness_bound"] = s.pop.StalenessBound()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(body)
}

// decodeBody decodes a request body of at most 1 MB into v, refusing any
// field v does not read: a client spelling a field the daemon ignores gets a
// 400 rather than an answer to a request it did not make. It writes the error
// response itself and reports whether v was decoded.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}
