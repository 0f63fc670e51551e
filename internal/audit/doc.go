// Package audit is the domain-level observability layer: where package
// mapreduce instruments the *engine* (spans, task latencies, shuffle bytes),
// this package observes the *statistics* the paper actually promises — and
// turns every MR-SQE, MR-MQE or MR-CPS run into an auditable quality report.
//
// Four audit dimensions, one per report section:
//
//   - Fill: did each stratum receive its required frequency f_k? Achieved
//     vs required counts, fill rate against the feasible target
//     min(f_k, |σ_k(R)|), shortfall and overdraw (Section 3's SSD
//     semantics).
//   - Bias: is per-stratum inclusion uniform? Repeated runs under varying
//     seeds accumulate per-individual inclusion counts, tested with the
//     chi-square machinery of internal/stats — the continuous version of
//     the test suite's unbiasedness checks (Section 4.2.3). Per-run
//     intermediate-sample histograms aggregate across runs via
//     Histogram.Merge, without re-bucketing.
//   - CPS: did the rounded plan deliver near the LP lower bound? Realized
//     cost c_τ(A*) vs the relaxation optimum C_LP, planned vs residual
//     top-up slots, and per-survey cost attribution derived from the solved
//     X_τ(σ) assignments (Section 6.2.2's optimality accounting).
//   - Estimator: is the sample statistically useful? Stratified-mean
//     standard error and the design effect against simple random sampling,
//     from internal/estimate (Example 1's motivation).
//
// A report renders as the scorecard strata audit prints, or as JSON under
// -json. The engine's own progress is not this package's business: it is in
// the -log debug lines of every job, the -trace span file and /metrics.
//
// Everything here is pull-based and allocation-free for the engine: audits
// run outside the job hot path.
package audit
