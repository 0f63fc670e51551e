// Package serve implements the resident sampling daemon behind
// "strata serve": it loads a population once, keeps it partitioned in
// memory, and answers stratified-sampling (SSD) queries from many
// concurrent clients over HTTP.
//
// The core idea is that the paper's own multi-query machinery is a batcher.
// MR-MQE (Section 5.1, internal/stratified) answers a whole set of SSD
// queries in one MapReduce pass over the population, so the daemon's
// admission control simply holds arriving queries for a short window (or
// until a size cap) and lowers the whole batch onto a single pass, then
// demultiplexes the per-(query, stratum) samples back to their clients. A
// batch with one distinct query runs as MR-SQE — the |Q|=1 degenerate of
// MR-MQE — which keeps its answer byte-identical to the one-shot
// "strata sample" CLI path for matching parameters.
//
// Around the batcher sit three service layers:
//
//   - Canonicalization (canon.go): queries are keyed by the cell grid
//     validation lowered them to (predicate.Classifier.Key) and their
//     frequencies, so submissions that select the same individuals — and
//     only those — share one cache entry and one slot in a coalesced pass.
//   - Result cache (cache.go): an LRU keyed on (canonical query, seed)
//     that holds one effective epoch (administrative epoch + mutation
//     sequence). The first get or put at a newer epoch — after a bump or a
//     mutation — drops every prior entry in O(1).
//   - Quotas (quota.go): per-tenant token buckets reject over-quota
//     submissions with 429 before they reach the batcher.
//
// Observability rides the existing stack: each pass runs on a cluster built
// by the configured factory (the CLI injects its -trace-wired one), pass
// metrics accumulate behind /metrics in Prometheus text form, and service
// counters — batch occupancy, window latency, cache hit rate,
// per-tenant rejections — are exported both there and as
// JSON at /v1/stats. DESIGN.md §12 documents the request lifecycle, the
// window state machine, and the fallback matrix.
package serve
