package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/live"
	"repro/internal/mapreduce"
)

// Stats is the daemon's service-level counter set, exported as JSON at
// /v1/stats and as Prometheus text at /metrics (alongside the accumulated
// engine metrics). All methods are safe for concurrent use.
type Stats struct {
	mu sync.Mutex

	queries     int64 // admitted queries (past quota, before cache)
	cacheHits   int64
	cacheMisses int64
	passes      int64 // engine passes executed
	passQueries int64 // distinct queries across all passes
	coalesced   int64 // requests beyond the first in their batch
	singleFlown int64 // requests that attached to an already-batched identical query
	pruned      int64 // splits skipped by box pre-filtering, across passes
	errors      int64 // passes or submissions that failed
	passPanics  int64 // passes that panicked and were recovered
	adaptive    int64 // batches fired ahead of their window: opened idle, or the last running batch finished
	abandoned   int64 // requests whose client hung up before their batch fired

	rejected map[string]int64 // per-tenant quota rejections

	// Cache-invalidation observability (satellite of the live subsystem):
	// epoch bumps and the entries each bump dropped.
	cachePurges int64
	cachePurged int64

	// Live-mode counters: queries answered warm from standing reservoirs,
	// standing-query pushes delivered to subscribers (with trigger-to-publish
	// latency), and the current subscription count.
	liveHits    int64
	pushes      int64
	subscribers int64
	pushNanos   mapreduce.Histogram

	// batchOccupancy observes the number of distinct queries per engine
	// pass; windowNanos observes request time-in-batcher (admission to
	// answer) for non-cached requests.
	batchOccupancy mapreduce.Histogram
	windowNanos    mapreduce.Histogram

	// Per-query latency attribution — where an answered request's time went:
	// waiting for its batch window to fire, queued behind sibling passes,
	// inside its own engine pass, and encoding the answer onto the wire.
	// Always on (a handful of clock reads per request), independent of the
	// tracer.
	attrWindow mapreduce.Histogram
	attrQueue  mapreduce.Histogram
	attrPass   mapreduce.Histogram
	attrWire   mapreduce.Histogram
}

func newStats() *Stats {
	return &Stats{rejected: make(map[string]int64)}
}

func (s *Stats) addQuery() {
	s.mu.Lock()
	s.queries++
	s.mu.Unlock()
}

func (s *Stats) addCacheHit() {
	s.mu.Lock()
	s.cacheHits++
	s.mu.Unlock()
}

func (s *Stats) addCacheMiss() {
	s.mu.Lock()
	s.cacheMisses++
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
	s.cachePurges++
	s.cachePurged += int64(entries)
	s.mu.Unlock()
}

func (s *Stats) addLiveHit() {
	s.mu.Lock()
	s.liveHits++
	s.mu.Unlock()
}

func (s *Stats) addSubscriber(delta int64) {
	s.mu.Lock()
	s.subscribers += delta
	s.mu.Unlock()
}

// observePush records one standing-query push: the time from the mutation (or
// timer tick) that triggered it to the event's publication.
func (s *Stats) observePush(d time.Duration) {
	s.mu.Lock()
	s.pushes++
	s.pushNanos.Observe(max(d.Nanoseconds(), 0))
	s.mu.Unlock()
}

func (s *Stats) addError() {
	s.mu.Lock()
	s.errors++
	s.mu.Unlock()
}

func (s *Stats) addPassPanic() {
	s.mu.Lock()
	s.passPanics++
	s.mu.Unlock()
}

func (s *Stats) addSingleFlight() {
	s.mu.Lock()
	s.singleFlown++
	s.mu.Unlock()
}

// addAdaptiveFire records a batch fired ahead of its window because nothing
// was (or nothing was any longer) in flight.
func (s *Stats) addAdaptiveFire() {
	s.mu.Lock()
	s.adaptive++
	s.mu.Unlock()
}

// addAbandoned records a request detached from a collecting batch because
// its client hung up.
func (s *Stats) addAbandoned() {
	s.mu.Lock()
	s.abandoned++
	s.mu.Unlock()
}

// addPass records one executed engine pass: how many distinct queries it
// answered, how many requests rode it, and how many splits were pruned.
func (s *Stats) addPass(distinct, requests, pruned int) {
	s.mu.Lock()
	s.passes++
	s.passQueries += int64(distinct)
	if requests > 1 {
		s.coalesced += int64(requests - 1)
	}
	s.pruned += int64(pruned)
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
	s.attrWindow.Observe(max(window.Nanoseconds(), 0))
	s.attrQueue.Observe(max(queue.Nanoseconds(), 0))
	s.attrPass.Observe(max(pass.Nanoseconds(), 0))
	s.mu.Unlock()
}

// observeWire records one answer's encode-and-write time.
func (s *Stats) observeWire(d time.Duration) {
	s.mu.Lock()
	s.attrWire.Observe(max(d.Nanoseconds(), 0))
	s.mu.Unlock()
}

// Snapshot is the JSON shape of /v1/stats.
type Snapshot struct {
	Queries       int64            `json:"queries"`
	CacheHits     int64            `json:"cache_hits"`
	CacheMisses   int64            `json:"cache_misses"`
	Passes        int64            `json:"passes"`
	PassQueries   int64            `json:"pass_queries"`
	Coalesced     int64            `json:"coalesced"`
	SingleFlight  int64            `json:"single_flight"`
	PrunedSplits  int64            `json:"pruned_splits"`
	Errors        int64            `json:"errors"`
	PassPanics    int64            `json:"pass_panics,omitempty"`
	AdaptiveFires int64            `json:"adaptive_fires,omitempty"`
	Abandoned     int64            `json:"abandoned,omitempty"`
	Rejected      map[string]int64 `json:"rejected_by_tenant,omitempty"`
	BatchMean     float64          `json:"batch_occupancy_mean"`
	BatchMax      int64            `json:"batch_occupancy_max"`
	WindowP50Usec int64            `json:"window_latency_p50_us"`
	WindowP99Usec int64            `json:"window_latency_p99_us"`
	// Attribution answers "where did my latency go" per component, keyed
	// window/queue/pass/wire; present once any request has been attributed.
	Attribution map[string]AttrQuantiles `json:"latency_attribution,omitempty"`

	// Cache-invalidation observability: epoch bumps and entries dropped.
	CachePurges int64 `json:"cache_purges,omitempty"`
	CachePurged int64 `json:"cache_purged_entries,omitempty"`

	// Live-mode counters; Live itself is the live subsystem's own snapshot,
	// attached by the server when running with a mutable population.
	LiveHits      int64       `json:"live_hits,omitempty"`
	Pushes        int64       `json:"pushes,omitempty"`
	Subscriptions int64       `json:"subscriptions,omitempty"`
	PushP50Usec   int64       `json:"push_latency_p50_us,omitempty"`
	PushP99Usec   int64       `json:"push_latency_p99_us,omitempty"`
	Live          *live.Stats `json:"live,omitempty"`

	// ResidentBytes is the memory the resident population occupies by layout
	// ("rows", "columns"), attached by the server; live mode reads it from
	// the population.
	ResidentBytes map[string]int64 `json:"resident_bytes,omitempty"`
}

// AttrQuantiles is one latency-attribution component's summary.
type AttrQuantiles struct {
	P50Usec int64 `json:"p50_us"`
	P99Usec int64 `json:"p99_us"`
}

// snapshot copies the counters.
func (s *Stats) snapshot() Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	rej := make(map[string]int64, len(s.rejected))
	for k, v := range s.rejected {
		rej[k] = v
	}
	snap := Snapshot{
		Queries: s.queries, CacheHits: s.cacheHits, CacheMisses: s.cacheMisses,
		Passes: s.passes, PassQueries: s.passQueries, Coalesced: s.coalesced,
		SingleFlight: s.singleFlown, PrunedSplits: s.pruned, Errors: s.errors,
		PassPanics:    s.passPanics,
		AdaptiveFires: s.adaptive,
		Abandoned:     s.abandoned,
		Rejected:      rej,
		CachePurges:   s.cachePurges, CachePurged: s.cachePurged,
		LiveHits: s.liveHits, Pushes: s.pushes, Subscriptions: s.subscribers,
	}
	if s.pushNanos.Count() > 0 {
		snap.PushP50Usec = s.pushNanos.Quantile(0.5) / 1000
		snap.PushP99Usec = s.pushNanos.Quantile(0.99) / 1000
	}
	if s.batchOccupancy.Count() > 0 {
		snap.BatchMean = s.batchOccupancy.Mean()
		snap.BatchMax = s.batchOccupancy.Max()
	}
	if s.windowNanos.Count() > 0 {
		snap.WindowP50Usec = s.windowNanos.Quantile(0.5) / 1000
		snap.WindowP99Usec = s.windowNanos.Quantile(0.99) / 1000
	}
	attr := map[string]*mapreduce.Histogram{
		"window": &s.attrWindow, "queue": &s.attrQueue,
		"pass": &s.attrPass, "wire": &s.attrWire,
	}
	for name, h := range attr {
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

// WriteJSON renders the snapshot as indented JSON.
func (s *Stats) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.snapshot())
}

// WritePrometheus renders the service counters in the Prometheus text
// exposition format under the strata_serve_* namespace.
func (s *Stats) WritePrometheus(w io.Writer) error {
	snap := s.snapshot()
	s.mu.Lock()
	occ := s.batchOccupancy
	win := s.windowNanos
	push := s.pushNanos
	attrs := []struct {
		name string
		h    mapreduce.Histogram
	}{
		{"window", s.attrWindow}, {"queue", s.attrQueue},
		{"pass", s.attrPass}, {"wire", s.attrWire},
	}
	s.mu.Unlock()

	counters := []struct {
		name, help string
		v          int64
	}{
		{"strata_serve_queries_total", "Admitted sampling queries.", snap.Queries},
		{"strata_serve_cache_hits_total", "Queries answered from the result cache.", snap.CacheHits},
		{"strata_serve_cache_misses_total", "Queries that missed the result cache.", snap.CacheMisses},
		{"strata_serve_passes_total", "Engine passes executed.", snap.Passes},
		{"strata_serve_pass_queries_total", "Distinct queries across all passes.", snap.PassQueries},
		{"strata_serve_coalesced_total", "Requests that shared a pass with an earlier request.", snap.Coalesced},
		{"strata_serve_single_flight_total", "Requests deduplicated onto an identical in-batch query.", snap.SingleFlight},
		{"strata_serve_pruned_splits_total", "Splits skipped by box pre-filtering.", snap.PrunedSplits},
		{"strata_serve_errors_total", "Failed passes or submissions.", snap.Errors},
		{"strata_serve_pass_panics_total", "Passes that panicked; their waiters were failed, the daemon kept serving.", snap.PassPanics},
		{"strata_serve_adaptive_fires_total", "Batches fired ahead of their window because the daemon was idle: opened with nothing in flight, or released when the in-flight count reached zero.", snap.AdaptiveFires},
		{"strata_serve_abandoned_total", "Requests whose client hung up while their batch was still collecting; detached without buying a pass.", snap.Abandoned},
		{"strata_serve_cache_purges_total", "Epoch bumps that purged the result cache.", snap.CachePurges},
		{"strata_serve_cache_purged_total", "Result-cache entries dropped by epoch bumps.", snap.CachePurged},
		{"strata_serve_live_hits_total", "Queries answered warm from standing reservoirs.", snap.LiveHits},
		{"strata_serve_pushes_total", "Standing-query pushes delivered to subscribers.", snap.Pushes},
	}
	for _, c := range counters {
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.v); err != nil {
			return err
		}
	}
	tenants := make([]string, 0, len(snap.Rejected))
	for t := range snap.Rejected {
		tenants = append(tenants, t)
	}
	sort.Strings(tenants)
	if len(tenants) > 0 {
		if _, err := fmt.Fprintf(w, "# HELP strata_serve_rejected_total Queries rejected by per-tenant quota.\n# TYPE strata_serve_rejected_total counter\n"); err != nil {
			return err
		}
		for _, t := range tenants {
			if _, err := fmt.Fprintf(w, "strata_serve_rejected_total{tenant=%q} %d\n", t, snap.Rejected[t]); err != nil {
				return err
			}
		}
	}
	if _, err := fmt.Fprintf(w, "# HELP strata_serve_subscriptions Active standing-query subscriptions.\n# TYPE strata_serve_subscriptions gauge\nstrata_serve_subscriptions %d\n", snap.Subscriptions); err != nil {
		return err
	}
	if err := writePromHistogram(w, "strata_serve_batch_occupancy", "Distinct queries per engine pass.", occ); err != nil {
		return err
	}
	if err := writePromHistogram(w, "strata_serve_push_nanos", "Standing-query push latency, trigger to publication (ns).", push); err != nil {
		return err
	}
	if err := writePromHistogram(w, "strata_serve_window_latency_nanos", "Request time from admission to answer (ns).", win); err != nil {
		return err
	}
	for _, a := range attrs {
		name := "strata_serve_attr_" + a.name + "_nanos"
		if err := writePromHistogram(w, name, "Per-request latency attributed to the "+a.name+" component (ns).", a.h); err != nil {
			return err
		}
	}
	return nil
}

// WriteBuildInfo writes the strata_build_info and strata_uptime_seconds
// gauges in Prometheus text format: build metadata (Go version, VCS revision
// when the binary was built from a checkout) and seconds since start. Both
// the serve daemon's /metrics and the CLI's -debug-addr endpoint expose them,
// so a scrape can always tell which build produced the numbers next to it.
func WriteBuildInfo(w io.Writer, start time.Time) {
	goVersion, revision, modified := "unknown", "", "false"
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVersion = bi.GoVersion
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				revision = kv.Value
			case "vcs.modified":
				modified = kv.Value
			}
		}
	}
	fmt.Fprintf(w, "# HELP strata_build_info Build metadata; the value is always 1.\n# TYPE strata_build_info gauge\n")
	fmt.Fprintf(w, "strata_build_info{go_version=%q,revision=%q,modified=%q} 1\n", goVersion, revision, modified)
	fmt.Fprintf(w, "# HELP strata_uptime_seconds Seconds since the process started serving.\n# TYPE strata_uptime_seconds gauge\n")
	fmt.Fprintf(w, "strata_uptime_seconds %.3f\n", time.Since(start).Seconds())
}

func writePromHistogram(w io.Writer, name, help string, h mapreduce.Histogram) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name); err != nil {
		return err
	}
	cum := int64(0)
	for _, b := range h.Buckets() {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", name, b.Le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Count()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_sum %d\n%s_count %d\n", name, h.Sum(), name, h.Count())
	return err
}
