package main

import (
	"encoding/json"
	"time"
)

// A workload is one named set of inputs and one traffic mix. Names are
// permanent: results of different commits are compared row by row on them.
type workload struct {
	Name string
	Why  string
	// Pop is the population size; Backend "inproc" or "tcp" (2 local workers,
	// direct shuffle); Kind selects the driver.
	Pop     int
	Backend string
	Kind    kind
	// Warmup ops are issued and discarded before timing (charged to setup_s).
	// MinOps is the least number of measured ops of the primary class: never
	// under minClassOps, so that ten samples lie beyond every p95 reported,
	// and more where a row needs more work in a run to read steadily.
	Warmup int
	MinOps int
	// SetupReps is how many times an untraced run sets up; setup_s is their
	// median.
	SetupReps int
	// Rate is the arrival rate of the workload's open-loop generator in ops/s
	// (0: every client is closed-loop).
	Rate float64
	// Gated workloads are the ones BENCHMARK.json lists, which the driver runs
	// and gates: the rows whose timings the shared machine's slow stretches
	// move by less than the bound (see README.md, "What the machine does to a
	// run"). `bench all` runs all six.
	Gated bool
}

type kind int

const (
	kindAdhoc kind = iota // 2 closed-loop clients, nocache samples
	kindLive              // client 1 closed-loop samples, client 2 scheduled mutate/warm
	kindLone              // open-loop lone/cached alternation
	kindCPS               // no daemon: cps.Run jobs
)

const (
	// minClassOps keeps ten samples beyond p95: 200 − ⌈0.95·200⌉ = 10.
	minClassOps = 200
	// serveWindow is the daemon's batching window on every serve workload.
	serveWindow = 5 * time.Millisecond
	// serveSlaves is the simulated cluster width per pass (the CLI default).
	serveSlaves = 4
	// mutationBatchOps is the size of one /v1/mutate batch.
	mutationBatchOps = 8
	// primedQueries is the number of cacheable queries primed on lone_open_1e5;
	// it fits the daemon's 1024-entry result cache.
	primedQueries = 32
)

var workloads = []workload{
	{
		Name: "adhoc_1e5", Pop: 100_000, Backend: "inproc", Kind: kindAdhoc,
		Warmup: 160, MinOps: minClassOps, SetupReps: 3, Gated: true,
		Why: "Headline cell: 2 closed-loop clients, nocache samples over 8 templates; the coalesced MR-MQE pass (stratified+mapreduce+predicate) does most of the work.",
	},
	{
		Name: "adhoc_1e6", Pop: 1_000_000, Backend: "inproc", Kind: kindAdhoc,
		Warmup: 30, MinOps: 400, SetupReps: 3,
		Why: "Working set far beyond CPU cache and GC-visible: the classify scan is most of latency and the window is noise; separates a faster scan from less per-pass overhead.",
	},
	{
		Name: "adhoc_tcp_1e5", Pop: 100_000, Backend: "tcp", Kind: kindAdhoc,
		Warmup: 60, MinOps: minClassOps, SetupReps: 3,
		Why: "adhoc_1e5 on the tcp backend, 2 local workers, direct shuffle: worker+wire+TupleBatch encode/ship/decode carry the pass; inproc rows bypass them entirely.",
	},
	{
		Name: "live_mixed_1e5", Pop: 100_000, Backend: "inproc", Kind: kindLive,
		Warmup: 80, MinOps: 1100, SetupReps: 3, Gated: true, Rate: 100,
		Why: "Passes run under the population RLock while a scheduled writer keeps arriving: lock hold or a taxed Apply shows as mutate_p95_ms / warm_p50_ms here and nowhere else.",
	},
	{
		Name: "lone_open_1e5", Pop: 100_000, Backend: "inproc", Kind: kindLone,
		Warmup: 20, MinOps: 250, SetupReps: 3, Rate: 60,
		Why: "Bypass workload, open loop: lone queries fire adaptively as singleton SQE passes and primed queries hit the result cache; the serve front end works, the MQE path does nothing.",
	},
	{
		Name: "batch_cps_1e5", Pop: 100_000, Backend: "inproc", Kind: kindCPS,
		Warmup: 10, MinOps: minClassOps, SetupReps: 3,
		Why: "The paper's own pipeline (MQE pass, SST, LP, SQE pass, deal, residual) on cold clusters with no daemon; cps/lp/sst carry about a third and cps_cost_ratio pins Table 2's quantity.",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metricDef declares one metric once: its unit, direction and, where it is
// gated, the share of the baseline median by which it may get worse. On lists
// the workloads a metric applies to (nil: all of them).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	On     []string
}

func (m metricDef) appliesTo(workload string) bool {
	if m.On == nil {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

var (
	serveRows = []string{"adhoc_1e5", "adhoc_1e6", "adhoc_tcp_1e5", "live_mixed_1e5", "lone_open_1e5"}
	liveRow   = []string{"live_mixed_1e5"}
	loneRow   = []string{"lone_open_1e5"}
	tcpRow    = []string{"adhoc_tcp_1e5"}
	cpsRow    = []string{"batch_cps_1e5"}
	openRows  = []string{"lone_open_1e5", "live_mixed_1e5"}
	passRows  = []string{"adhoc_1e5", "adhoc_1e6", "adhoc_tcp_1e5", "live_mixed_1e5", "batch_cps_1e5"}
	probeRows = []string{"adhoc_1e5", "adhoc_1e6", "lone_open_1e5"}
)

// endToEnd are the metrics every workload reports from its untraced run, and
// the ones BENCHMARK.json gates. The "op" is the ad-hoc nocache sample
// (client 1's on live_mixed_1e5, the lone class on lone_open_1e5) or one
// cps.Run job.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},             // population gen + NewServer (partition) + executor spawn + subscribe/prime + warm-up; median of SetupReps set-ups
	{Name: "throughput_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25}, // ops / wall of the quietest block; on lone_open_1e5 half the offered rate unless a backlog grows
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},     // median latency of the quietest block
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},        // VmHWM of the workload's process when the measured interval ends
}

// classMetrics are the end-to-end metrics BENCHMARK.json cannot gate: those of
// one workload's extra latency class (its flat schema wants every gated metric
// on every workload and never zero), and latency_p95_ms and cpu_ms_per_op,
// which the shared machine moves by more than any bound the schema allows.
// They are listed there as per-layer metrics; `bench compare` still applies
// their bounds.
var classMetrics = []metricDef{
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},                 // getrusage user+sys / ops of the quietest block; load generator included
	{Name: "latency_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},                // p95 of the whole measured interval: at least minClassOps ops, so at least 10 samples lie beyond it
	{Name: "failed_ratio", Unit: "ratio", Better: "lower", Bound: 0},                  // failed / attempted: transport error, non-200, or an answer the checker rejects
	{Name: "warm_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: liveRow},      // standing-query reads answered from live reservoirs
	{Name: "mutate_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: liveRow},    // one 8-op /v1/mutate batch, from due time
	{Name: "mutate_p95_ms", Unit: "ms", Better: "lower", Bound: 0.20, On: liveRow},    // where a writer waiting out a pass shows
	{Name: "cached_p50_ms", Unit: "ms", Better: "lower", Bound: 0.15, On: loneRow},    // result-cache hits, from due time
	{Name: "cps_cost_ratio", Unit: "ratio", Better: "lower", Bound: 1e-9, On: cpsRow}, // cost(CPS)/cost(MQE), mean over the first exactJobs measured jobs; repeats exactly for one seed
}

// perLayer are the traced run's metrics: where an answer's time went.
var perLayer = []metricDef{
	{Name: "client.latency_p50_ms", Unit: "ms", Better: "lower"}, // median of the whole traced leg: what the daemon's attribution of the same leg sums to
	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"}, // diagnostic tail; fewer than ten samples lie beyond it
	{Name: "client.latency_max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.response_kb_per_op", Unit: "KB", Better: "lower", On: serveRows},
	{Name: "client.sched_lag_p95_ms", Unit: "ms", Better: "lower", On: openRows}, // how late the open-loop generator ran
	{Name: "client.http_overhead_ms", Unit: "ms", Better: "lower", On: loneRow},  // median cache-hit latency of the traced leg minus the front-end probe: the loopback HTTP hop and the wake-up from idle between arrivals
	{Name: "client.trace_overhead_pct", Unit: "%", Better: "lower"},              // untraced vs traced throughput of the same run

	{Name: "serve.window_p50_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.queue_p50_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.pass_p50_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.wire_p50_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.passes_per_kop", Unit: "count", Better: "lower", On: serveRows},
	{Name: "serve.batch_occupancy_mean", Unit: "count", Better: "higher", On: serveRows},
	{Name: "serve.single_flight_ratio", Unit: "ratio", Better: "higher", On: serveRows},
	{Name: "serve.adaptive_fire_ratio", Unit: "ratio", Better: "higher", On: serveRows}, // about 1 on lone_open_1e5, about 0 elsewhere
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher", On: loneRow},
	{Name: "serve.live_hit_ratio", Unit: "ratio", Better: "higher", On: liveRow},
	{Name: "serve.request_self_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.cache_self_ms", Unit: "ms", Better: "lower", On: loneRow},
	{Name: "serve.batch_self_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.pass_self_ms", Unit: "ms", Better: "lower", On: serveRows}, // pass minus engine job: pool/prune/lock overhead
	{Name: "serve.demux_self_ms", Unit: "ms", Better: "lower", On: serveRows},
	{Name: "serve.frontend_us", Unit: "us", Better: "lower", On: serveRows}, // probe: ServeHTTP of a primed cacheable request on a recorder

	{Name: "query.parse_us", Unit: "us", Better: "lower", On: loneRow},
	{Name: "predicate.boxes_us", Unit: "us", Better: "lower", On: loneRow},
	{Name: "predicate.eval_ns_per_tuple", Unit: "ns", Better: "lower", On: probeRows},
	{Name: "stratified.sqe_pass_ms", Unit: "ms", Better: "lower", On: probeRows},
	{Name: "stratified.mqe2_pass_ms", Unit: "ms", Better: "lower", On: probeRows},
	{Name: "stratified.mqe8_pass_ms", Unit: "ms", Better: "lower", On: probeRows},
	{Name: "sampling.reservoir_ns_per_item", Unit: "ns", Better: "lower", On: []string{"adhoc_1e5", "batch_cps_1e5"}},
	{Name: "sampling.unified_us_per_merge", Unit: "us", Better: "lower", On: []string{"adhoc_1e5", "batch_cps_1e5"}},

	{Name: "mapreduce.job_p50_ms", Unit: "ms", Better: "lower", On: passRows},
	{Name: "mapreduce.map_busy_ms_per_pass", Unit: "ms", Better: "lower", On: passRows},
	{Name: "mapreduce.combine_busy_ms_per_pass", Unit: "ms", Better: "lower", On: passRows},
	{Name: "mapreduce.shuffle_send_ms_per_pass", Unit: "ms", Better: "lower", On: passRows},
	{Name: "mapreduce.shuffle_recv_ms_per_pass", Unit: "ms", Better: "lower", On: passRows},
	{Name: "mapreduce.reduce_busy_ms_per_pass", Unit: "ms", Better: "lower", On: passRows},
	{Name: "mapreduce.map_task_p50_ms", Unit: "ms", Better: "lower", On: passRows},          // wall of traced map spans
	{Name: "mapreduce.map_task_max_over_p50", Unit: "ratio", Better: "lower", On: passRows}, // mean over jobs; the slowest task sets the pass
	{Name: "mapreduce.map_out_per_in", Unit: "ratio", Better: "lower", On: passRows},
	{Name: "mapreduce.combine_out_per_in", Unit: "ratio", Better: "lower", On: passRows},
	{Name: "mapreduce.shuffle_bytes_per_pass", Unit: "B", Better: "lower", On: passRows},
	{Name: "mapreduce.attempts_per_task", Unit: "ratio", Better: "lower", On: passRows},

	{Name: "dataset.partition_ms", Unit: "ms", Better: "lower"}, // probe: dataset.Partition into the daemon's split layout
	{Name: "dataset.batch_encode_ns_per_tuple", Unit: "ns", Better: "lower", On: tcpRow},
	{Name: "dataset.batch_decode_ns_per_tuple", Unit: "ns", Better: "lower", On: tcpRow},

	{Name: "worker.queue_ms_per_pass", Unit: "ms", Better: "lower", On: tcpRow},
	{Name: "worker.wire_ms_per_pass", Unit: "ms", Better: "lower", On: tcpRow},
	{Name: "worker.decode_ms_per_pass", Unit: "ms", Better: "lower", On: tcpRow},
	{Name: "worker.exec_ms_per_pass", Unit: "ms", Better: "lower", On: tcpRow},
	{Name: "worker.push_ms_per_pass", Unit: "ms", Better: "lower", On: tcpRow},
	{Name: "worker.recv_ms_per_pass", Unit: "ms", Better: "lower", On: tcpRow},
	{Name: "worker.direct_bytes_per_pass", Unit: "B", Better: "lower", On: tcpRow},
	{Name: "worker.routed_bytes_per_pass", Unit: "B", Better: "lower", On: tcpRow}, // must stay 0
	{Name: "worker.shuffle_lost", Unit: "count", Better: "lower", On: tcpRow},      // must stay 0

	{Name: "live.apply_us_per_mutation", Unit: "us", Better: "lower", On: liveRow},
	{Name: "live.snapshot_us", Unit: "us", Better: "lower", On: liveRow},
	{Name: "live.repairs", Unit: "count", Better: "lower", On: liveRow},
	{Name: "live.max_staleness", Unit: "count", Better: "lower", On: liveRow},
	{Name: "live.rejected", Unit: "count", Better: "lower", On: liveRow},
	{Name: "live.mutate_wait_ms", Unit: "ms", Better: "lower", On: liveRow}, // mutate_p95_ms minus 8 applies: time a writer waited for passes to release the lock

	{Name: "cps.mr_ms_per_job", Unit: "ms", Better: "lower", On: cpsRow},
	{Name: "cps.self_ms_per_job", Unit: "ms", Better: "lower", On: cpsRow}, // cps.Run wall minus engine jobs: SST, LP, dealing
	{Name: "cps.residual_fraction", Unit: "ratio", Better: "lower", On: cpsRow},
	{Name: "lp.solve_ms_per_job", Unit: "ms", Better: "lower", On: cpsRow},
	{Name: "lp.vars", Unit: "count", Better: "lower", On: cpsRow},

	{Name: "runtime.alloc_kb_per_op", Unit: "KB", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms_total", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cpu_pct", Unit: "%", Better: "lower"},
	{Name: "runtime.heap_live_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.goroutines_peak", Unit: "count", Better: "lower"},
}

// tracedMetrics is what a traced run reports: the class metrics (measured on
// its untraced reference leg) and the per-layer ladder.
func tracedMetrics() []metricDef {
	return append(append([]metricDef(nil), classMetrics...), perLayer...)
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), tracedMetrics()...)
}

// runSeconds is BENCHMARK.json's run_seconds: how long one run measures. It is
// as long as the driver's time for all its runs (4 + 22 per gated workload, in
// 3420 s with two builds) allows with a margin: the longer a run, the surer
// that one of its blocks caught the machine quiet. allSeconds is how long a
// run of `bench all` measures unless told otherwise: all six workloads,
// untraced and traced, in about five minutes.
const (
	runSeconds = 50
	allSeconds = 10
)

// manifest is BENCHMARK.json, exactly the keys the driver's contract names.
type manifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func buildManifest() manifest {
	m := manifest{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		if w.Gated {
			m.Workloads = append(m.Workloads, manifestWorkload{Name: w.Name, Why: w.Why})
		}
	}
	for _, d := range endToEnd {
		bound := d.Bound
		m.EndToEnd = append(m.EndToEnd, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: &bound})
	}
	for _, d := range tracedMetrics() {
		m.PerLayer = append(m.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return m
}

func marshalManifest() ([]byte, error) {
	buf, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		return nil, err
	}
	return append(buf, '\n'), nil
}
