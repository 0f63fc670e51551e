package serve

import (
	"maps"
	"sort"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/mapreduce"
)

// Counters is the daemon's plain int64 signals, each declared once: the field
// is what a call site bumps (Stats.add) and what /v1/stats renders (Snapshot
// embeds the struct, so the JSON stays flat); families binds it to its
// /metrics name and help.
type Counters struct {
	Queries       int64 `json:"queries"` // admitted: past quota, before cache
	CacheHits     int64 `json:"cache_hits"`
	CacheMisses   int64 `json:"cache_misses"`
	Passes        int64 `json:"passes"`
	PassQueries   int64 `json:"pass_queries"`
	Coalesced     int64 `json:"coalesced"`
	SingleFlight  int64 `json:"single_flight"`
	Errors        int64 `json:"errors"`
	PassPanics    int64 `json:"pass_panics,omitempty"`
	AdaptiveFires int64 `json:"adaptive_fires,omitempty"`
	Abandoned     int64 `json:"abandoned,omitempty"`
	CachePurges   int64 `json:"cache_purges,omitempty"`
	CachePurged   int64 `json:"cache_purged_entries,omitempty"`
	// Live mode; Subscriptions is the one gauge, the current count.
	LiveHits      int64 `json:"live_hits,omitempty"`
	Pushes        int64 `json:"pushes,omitempty"`
	Subscriptions int64 `json:"subscriptions,omitempty"`
}

type family struct {
	name, help string
	v          int64
}

// families is the one table of what each counter is called and means
// (Subscriptions, the gauge, is written beside it in writePrometheus).
func (c *Counters) families() []family {
	return []family{
		{"strata_serve_queries_total", "Admitted sampling queries.", c.Queries},
		{"strata_serve_cache_hits_total", "Queries answered from the result cache.", c.CacheHits},
		{"strata_serve_cache_misses_total", "Queries that missed the result cache.", c.CacheMisses},
		{"strata_serve_passes_total", "Engine passes executed.", c.Passes},
		{"strata_serve_pass_queries_total", "Distinct queries across all passes.", c.PassQueries},
		{"strata_serve_coalesced_total", "Requests that shared a pass with an earlier request.", c.Coalesced},
		{"strata_serve_single_flight_total", "Requests deduplicated onto an identical in-batch query.", c.SingleFlight},
		{"strata_serve_errors_total", "Failed passes or submissions.", c.Errors},
		{"strata_serve_pass_panics_total", "Passes that panicked; their waiters were failed, the daemon kept serving.", c.PassPanics},
		{"strata_serve_adaptive_fires_total", "Batches fired ahead of their window because the daemon was idle: opened with nothing in flight, or released when the in-flight count reached zero.", c.AdaptiveFires},
		{"strata_serve_abandoned_total", "Requests whose client hung up while their batch was still collecting; detached without buying a pass.", c.Abandoned},
		{"strata_serve_cache_purges_total", "Administrative epoch bumps (POST /v1/epoch), each of which empties the result cache.", c.CachePurges},
		{"strata_serve_cache_purged_total", "Result-cache entries dropped because the effective epoch moved, by an epoch bump or a mutation.", c.CachePurged},
		{"strata_serve_live_hits_total", "Queries answered warm from standing reservoirs.", c.LiveHits},
		{"strata_serve_pushes_total", "Standing-query pushes delivered to subscribers.", c.Pushes},
	}
}

// The components of an answered request's latency, indexing signals.attr:
// waiting for its batch window to fire, queued behind sibling passes, inside
// its own engine pass, and encoding the answer onto the wire.
const (
	attrWindow = iota
	attrQueue
	attrPass
	attrWire
)

var attrNames = [...]string{attrWindow: "window", attrQueue: "queue", attrPass: "pass", attrWire: "wire"}

// signals is everything Stats guards, as one value: a reader copies it under
// one lock acquisition, so the figures inside a scrape or a snapshot agree.
type signals struct {
	Counters
	rejected map[string]int64 // quota rejections by the bucket charged

	// batchOccupancy observes the number of distinct queries per engine pass;
	// windowNanos request time-in-batcher (admission to answer) for non-cached
	// requests; pushNanos a standing-query push, trigger to publication.
	batchOccupancy, windowNanos, pushNanos mapreduce.Histogram

	// attr is the per-query latency attribution. Always on (a handful of
	// clock reads per request), independent of the tracer.
	attr [len(attrNames)]mapreduce.Histogram
}

// Stats is the daemon's service-level signal set, exported as JSON at
// /v1/stats and as Prometheus text at /metrics (alongside the accumulated
// engine metrics). All methods are safe for concurrent use.
type Stats struct {
	mu sync.Mutex
	signals
}

func newStats() *Stats {
	return &Stats{signals: signals{rejected: make(map[string]int64)}}
}

// add bumps one counter: s.add(&s.Queries, 1).
func (s *Stats) add(counter *int64, n int64) {
	s.mu.Lock()
	*counter += n
	s.mu.Unlock()
}

func (s *Stats) addRejected(tenant string) {
	s.mu.Lock()
	s.rejected[tenant]++
	s.mu.Unlock()
}

// addCachePurge records one epoch bump and the cache entries it dropped.
func (s *Stats) addCachePurge(entries int) {
	s.mu.Lock()
	s.CachePurges++
	s.CachePurged += int64(entries)
	s.mu.Unlock()
}

// addCacheDropped records cache entries dropped because a get, put or read
// of the cache presented a newer effective epoch (a mutation landed).
func (s *Stats) addCacheDropped(entries int) {
	if entries > 0 {
		s.add(&s.CachePurged, int64(entries))
	}
}

// observePush records one standing-query push: the time from the mutation (or
// timer tick) that triggered it to the event's publication.
func (s *Stats) observePush(d time.Duration) {
	s.mu.Lock()
	s.Pushes++
	s.pushNanos.Observe(max(d.Nanoseconds(), 0))
	s.mu.Unlock()
}

// addPass records one executed engine pass: how many distinct queries it
// answered and how many requests rode it.
func (s *Stats) addPass(distinct, requests int) {
	s.mu.Lock()
	s.Passes++
	s.PassQueries += int64(distinct)
	if requests > 1 {
		s.Coalesced += int64(requests - 1)
	}
	s.batchOccupancy.Observe(int64(distinct))
	s.mu.Unlock()
}

func (s *Stats) observeWindow(nanos int64) {
	s.mu.Lock()
	s.windowNanos.Observe(nanos)
	s.mu.Unlock()
}

// observeAttribution records one answered request's latency split. Negative
// components (clock steps, zero-window batches) clamp to zero.
func (s *Stats) observeAttribution(window, queue, pass time.Duration) {
	s.mu.Lock()
	s.attr[attrWindow].Observe(max(window.Nanoseconds(), 0))
	s.attr[attrQueue].Observe(max(queue.Nanoseconds(), 0))
	s.attr[attrPass].Observe(max(pass.Nanoseconds(), 0))
	s.mu.Unlock()
}

// observeWire records one answer's encode-and-write time.
func (s *Stats) observeWire(d time.Duration) {
	s.mu.Lock()
	s.attr[attrWire].Observe(max(d.Nanoseconds(), 0))
	s.mu.Unlock()
}

// read copies every signal under one lock acquisition.
func (s *Stats) read() signals {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := s.signals
	d.rejected = maps.Clone(d.rejected)
	return d
}

// Snapshot is the JSON shape of /v1/stats.
type Snapshot struct {
	Counters
	Rejected      map[string]int64 `json:"rejected_by_tenant,omitempty"`
	BatchMean     float64          `json:"batch_occupancy_mean"`
	BatchMax      int64            `json:"batch_occupancy_max"`
	WindowP50Usec int64            `json:"window_latency_p50_us"`
	WindowP99Usec int64            `json:"window_latency_p99_us"`
	// Attribution answers "where did my latency go" per component, keyed
	// window/queue/pass/wire; present once any request has been attributed.
	Attribution map[string]AttrQuantiles `json:"latency_attribution,omitempty"`

	PushP50Usec int64 `json:"push_latency_p50_us,omitempty"`
	PushP99Usec int64 `json:"push_latency_p99_us,omitempty"`
	// Live is the live subsystem's own snapshot, attached by the server when
	// running with a mutable population.
	Live *live.Stats `json:"live,omitempty"`

	// ResidentBytes is the memory the resident population occupies by layout
	// ("rows", "columns"), read from the population by the server.
	ResidentBytes map[string]int64 `json:"resident_bytes,omitempty"`

	// CacheEntries is how many answers the result cache holds, all at the
	// current effective epoch, read from the cache by the server.
	CacheEntries int64 `json:"cache_entries"`
}

// AttrQuantiles is one latency-attribution component's summary.
type AttrQuantiles struct {
	P50Usec int64 `json:"p50_us"`
	P99Usec int64 `json:"p99_us"`
}

// snapshot summarizes one consistent read of the signals.
func (s *Stats) snapshot() Snapshot {
	d := s.read()
	snap := Snapshot{Counters: d.Counters, Rejected: d.rejected}
	if d.pushNanos.Count() > 0 {
		snap.PushP50Usec = d.pushNanos.Quantile(0.5) / 1000
		snap.PushP99Usec = d.pushNanos.Quantile(0.99) / 1000
	}
	if d.batchOccupancy.Count() > 0 {
		snap.BatchMean = d.batchOccupancy.Mean()
		snap.BatchMax = d.batchOccupancy.Max()
	}
	if d.windowNanos.Count() > 0 {
		snap.WindowP50Usec = d.windowNanos.Quantile(0.5) / 1000
		snap.WindowP99Usec = d.windowNanos.Quantile(0.99) / 1000
	}
	for i, name := range attrNames {
		h := &d.attr[i]
		if h.Count() == 0 {
			continue
		}
		if snap.Attribution == nil {
			snap.Attribution = make(map[string]AttrQuantiles)
		}
		snap.Attribution[name] = AttrQuantiles{
			P50Usec: h.Quantile(0.5) / 1000,
			P99Usec: h.Quantile(0.99) / 1000,
		}
	}
	return snap
}

// writePrometheus renders one consistent read of the signals under the
// strata_serve_* namespace.
func (s *Stats) writePrometheus(pw *mapreduce.PromWriter) {
	d := s.read()
	for _, f := range d.families() {
		pw.Counter(f.name, f.help, f.v)
	}
	if len(d.rejected) > 0 {
		tenants := make([]string, 0, len(d.rejected))
		for t := range d.rejected {
			tenants = append(tenants, t)
		}
		sort.Strings(tenants)
		pw.Family("strata_serve_rejected_total", "counter", "Queries rejected by per-tenant quota.")
		for _, t := range tenants {
			pw.Sample("strata_serve_rejected_total", d.rejected[t], "tenant", t)
		}
	}
	pw.Gauge("strata_serve_subscriptions", "Active standing-query subscriptions.", d.Subscriptions)
	pw.Histogram("strata_serve_batch_occupancy", "Distinct queries per engine pass.", d.batchOccupancy)
	pw.Histogram("strata_serve_push_nanos", "Standing-query push latency, trigger to publication (ns).", d.pushNanos)
	pw.Histogram("strata_serve_window_latency_nanos", "Request time from admission to answer (ns).", d.windowNanos)
	for i, name := range attrNames {
		pw.Histogram("strata_serve_attr_"+name+"_nanos", "Per-request latency attributed to the "+name+" component (ns).", d.attr[i])
	}
}
