// Package live maintains stratified samples incrementally over a mutating
// population — the standing-query side of the paper's SSD semantics. The
// batch engine (internal/stratified) recomputes an answer with a full
// MapReduce pass; this package instead ingests a mutation log (insert,
// delete, update-attributes) and keeps, per registered SSD query, one
// Algorithm L reservoir per stratum warm at all times, so a standing query's
// answer is a snapshot read instead of a pass.
//
// Cost model. An insert touches each registered query once: one stratum
// match plus one reservoir step, and the reservoir step is O(1) expected —
// Algorithm L's geometric skip counter (sampling.Reservoir) rejects most
// arrivals with a single decrement. Total maintenance is O(sample), never
// O(population). A deletion removes the member from its stratum's reservoir
// when sampled (sampling.Reservoir.Forget) and otherwise just counts; an
// attribute update that moves a member across strata is a delete from the
// old stratum plus an insert into the new one (stratum migration).
//
// Uniformity under churn uses random pairing (Gemulla, Lehner and Haas,
// VLDB 2006): each deletion is left "uncompensated" (d1 when the member was
// sampled, d2 when not) and the next insertion pairs against it — entering
// the sample with probability d1/(d1+d2) via Reservoir.Readmit instead of
// taking a fresh Algorithm L step. The invariant Seen − members = d1 + d2
// means the reservoir's stream count equals the membership exactly when all
// deletions are compensated, so the standard path always accepts with the
// correct k/(n+1) law. The sample is a simple random sample of the current
// stratum membership after every mutation.
//
// Staleness and repair. Uncompensated deletions (d1+d2) are the stratum's
// staleness: d1 of them are holes — the sample runs below min(f_k, members)
// until inserts arrive to pair against them. When a stratum's staleness
// reaches Config.StalenessBound, the stratum is repaired: its reservoir is
// rebuilt from the resident splits, not by rerunning a MapReduce pass, and
// the counters reset. The rebuild is one scan of the population for just
// that query, at the cost of a column scan: it classifies the column mirror
// a block at a time with the pass's kernel and streams the stratum's members
// into a fresh reservoir drawing from the query's own random stream, which
// copies only the members it keeps. The bound therefore caps both the sample deficit and the stream-count drift;
// repair cost and frequency are exported (strata_live_repairs_total,
// strata_live_repair_scanned_total, repair-nanos histogram) so the
// bound-vs-cost trade-off is measurable.
//
// internal/serve exposes this machinery over HTTP: POST /v1/mutate feeds the
// log, POST /v1/subscribe registers a standing query with a push trigger,
// and /v1/sample answers registered queries from the warm reservoirs without
// an engine pass. See DESIGN.md §14.
package live
