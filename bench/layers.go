package main

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mapreduce"
)

// values maps a metric name to what one run measured. A metric that does not
// apply to a workload is absent, never 0.
type values map[string]float64

// endToEndValues are what a user of the system sees, from an untraced leg.
func endToEndValues(l *leg, setupSeconds float64) (values, error) {
	if l.rssMB == 0 {
		return nil, fmt.Errorf("VmHWM not found in /proc/self/status")
	}
	return values{
		"setup_s":          setupSeconds,
		"throughput_ops_s": l.throughput(),
		"latency_p50_ms":   l.quietPercentile(l.primary, 0.50),
		"peak_rss_mb":      l.rssMB,
	}, nil
}

// classValues are the end-to-end metrics of a workload's extra latency
// classes, from an untraced leg.
func classValues(w workload, l *leg) values {
	attempted, failed := l.counts()
	v := values{
		"failed_ratio":  ratio(float64(failed), float64(attempted)),
		"cpu_ms_per_op": l.cpuPerOp(),
	}
	// A p95 of fewer ops than leave ten samples beyond it is not reported.
	if lat := l.latencies(l.primary); gateable(len(lat), 0.95) {
		v["latency_p95_ms"] = percentile(lat, 0.95)
	}
	switch w.Kind {
	case kindLive:
		v["warm_p50_ms"] = l.quietPercentile(classWarm, 0.50)
		v["mutate_p50_ms"] = l.quietPercentile(classMutate, 0.50)
		v["mutate_p95_ms"] = l.quietPercentile(classMutate, 0.95)
	case kindLone:
		v["cached_p50_ms"] = l.quietPercentile(classCached, 0.50)
	case kindCPS:
		v["cps_cost_ratio"] = ratio(l.cps.costRatio, float64(l.cps.jobs))
	}
	return v
}

// layerValues are the per-layer ladder of a traced run: ref is its untraced
// reference leg, tr the traced leg, probes what the probes measured.
func layerValues(w workload, ref, tr *leg, probes values) values {
	v := values{}
	for name, x := range probes {
		v[name] = x
	}
	ops := float64(tr.okOps(tr.primary))

	// (a) the bench's own spans around every call it made.
	lat := tr.latencies(tr.primary)
	v["client.latency_p50_ms"] = percentile(lat, 0.50)
	v["client.latency_p99_ms"] = percentile(lat, 0.99)
	v["client.latency_max_ms"] = percentile(lat, 1)
	v["client.trace_overhead_pct"] = 100 * ratio(ref.throughput()-tr.throughput(), ref.throughput())
	if w.Kind != kindCPS {
		var bytes float64
		for _, op := range tr.classes[tr.primary] {
			bytes += float64(op.bytes)
		}
		v["client.response_kb_per_op"] = ratio(bytes/1024, float64(len(tr.classes[tr.primary])))
	}
	if w.Rate > 0 {
		var lags []float64
		for class, samples := range tr.classes {
			if w.Kind == kindLive && class == classSample {
				continue // client 1 is closed-loop
			}
			for _, op := range samples {
				lags = append(lags, ms(op.lag))
			}
		}
		v["client.sched_lag_p95_ms"] = percentile(sortedCopy(lags), 0.95)
	}

	// (c) the program's own spans, traced leg only.
	spans := tabulate(tr.spans)

	if w.Kind != kindCPS {
		// (b) counters the daemon already returns from /v1/stats.
		s0, s1 := tr.stats0, tr.stats1
		for _, part := range []string{"window", "queue", "pass", "wire"} {
			v["serve."+part+"_p50_ms"] = float64(s1.Attribution[part].P50Usec) / 1e3
		}
		passes := float64(s1.Passes - s0.Passes)
		v["serve.passes_per_kop"] = 1000 * ratio(passes, ops)
		v["serve.batch_occupancy_mean"] = ratio(float64(s1.PassQueries-s0.PassQueries), passes)
		v["serve.single_flight_ratio"] = ratio(float64(s1.SingleFlight-s0.SingleFlight), ops)
		v["serve.adaptive_fire_ratio"] = ratio(float64(s1.AdaptiveFires-s0.AdaptiveFires), passes)
		if w.Kind == kindLone {
			v["serve.cache_hit_ratio"] = ratio(float64(s1.CacheHits-s0.CacheHits), float64(len(tr.classes[classCached])))
			v["serve.cache_self_ms"] = spans.selfMS("cache")
			v["client.http_overhead_ms"] = percentile(tr.latencies(classCached), 0.50) - probes["serve.frontend_us"]/1e3
		}
		if w.Kind == kindLive {
			v["serve.live_hit_ratio"] = ratio(float64(s1.LiveHits-s0.LiveHits), float64(len(tr.classes[classWarm])))
			if s0.Live != nil && s1.Live != nil {
				v["live.repairs"] = float64(s1.Live.Repairs - s0.Live.Repairs)
				v["live.rejected"] = float64(s1.Live.Rejected - s0.Live.Rejected)
				v["live.max_staleness"] = float64(s1.Live.MaxStaleness)
			}
			v["live.mutate_wait_ms"] = ref.quietPercentile(classMutate, 0.95) - probes["live.apply_us_per_mutation"]*mutationBatchOps/1e3
		}
		for _, phase := range []string{"request", "batch", "pass", "demux"} {
			v["serve."+phase+"_self_ms"] = spans.selfMS(phase)
		}
	}

	engine, enginePasses := tr.engine, float64(tr.passes)
	if w.Kind == kindCPS {
		r := tr.cps
		jobs := float64(r.jobs)
		engine, enginePasses = r.engine, float64(exactEngineJobs(tr.spans))
		v["cps.mr_ms_per_job"] = ratio(ms(r.engineWall), jobs)
		v["cps.self_ms_per_job"] = ratio(ms(r.selfWall), jobs)
		v["cps.residual_fraction"] = ratio(float64(r.residual), float64(r.planned))
		v["lp.solve_ms_per_job"] = ratio(ms(r.lpSolve), jobs)
		v["lp.vars"] = ratio(float64(r.lpVars), jobs)
	}
	if w.Kind != kindLone {
		jobDurs := sortedCopy(spans.get(spans.engine, mapreduce.PhaseJob).durs)
		v["mapreduce.job_p50_ms"] = percentile(jobDurs, 0.50)
		v["mapreduce.map_busy_ms_per_pass"] = spans.perJobMS(mapreduce.PhaseMap)
		v["mapreduce.combine_busy_ms_per_pass"] = spans.perJobMS(mapreduce.PhaseCombine)
		v["mapreduce.shuffle_send_ms_per_pass"] = spans.perJobMS(mapreduce.PhaseShuffleSend)
		v["mapreduce.shuffle_recv_ms_per_pass"] = spans.perJobMS(mapreduce.PhaseShuffleRecv)
		v["mapreduce.reduce_busy_ms_per_pass"] = spans.perJobMS(mapreduce.PhaseReduce)
		v["mapreduce.map_task_p50_ms"] = percentile(sortedCopy(spans.get(spans.engine, mapreduce.PhaseMap).durs), 0.50)
		v["mapreduce.map_task_max_over_p50"] = spans.mapTaskSkew()
		v["mapreduce.map_out_per_in"] = ratio(float64(engine.MapOutputRecords), float64(engine.MapInputRecords))
		v["mapreduce.combine_out_per_in"] = ratio(float64(engine.CombineOutputRecs), float64(engine.CombineInputRecs))
		v["mapreduce.shuffle_bytes_per_pass"] = ratio(float64(engine.ShuffleBytes), enginePasses)
		v["mapreduce.attempts_per_task"] = ratio(float64(engine.MapAttempts+engine.ReduceAttempts), float64(engine.MapTasks+engine.ReduceTasks))
	}
	if w.Backend == "tcp" {
		for _, phase := range []string{mapreduce.PhaseQueue, mapreduce.PhaseWire, mapreduce.PhaseDecode, mapreduce.PhaseExec, mapreduce.PhasePush, mapreduce.PhaseRecv} {
			v["worker."+phase+"_ms_per_pass"] = spans.perJobMS(phase)
		}
		v["worker.direct_bytes_per_pass"] = ratio(float64(tr.shuffle1.DirectBytes-tr.shuffle0.DirectBytes), enginePasses)
		v["worker.routed_bytes_per_pass"] = ratio(float64(tr.shuffle1.RoutedBucketBytes-tr.shuffle0.RoutedBucketBytes), enginePasses)
		v["worker.shuffle_lost"] = float64(tr.shuffle1.Lost - tr.shuffle0.Lost)
	}

	// (b) the Go runtime's own counters over the traced leg.
	v["runtime.alloc_kb_per_op"] = ratio((tr.rt1.allocBytes-tr.rt0.allocBytes)/1024, ops)
	v["runtime.allocs_per_op"] = ratio(tr.rt1.allocObjects-tr.rt0.allocObjects, ops)
	v["runtime.gc_pause_ms_total"] = (tr.rt1.gcPauseNs - tr.rt0.gcPauseNs) / 1e6
	v["runtime.gc_cpu_pct"] = 100 * ratio(tr.rt1.gcCPU-tr.rt0.gcCPU, tr.rt1.totalCPU-tr.rt0.totalCPU)
	v["runtime.heap_live_mb"] = tr.rt1.heapLive / (1 << 20)
	v["runtime.goroutines_peak"] = float64(tr.goroutines)
	return v
}

// exactEngineJobs counts the engine jobs of batch_cps_1e5's exact window: the
// first exactJobs measured cps.Run jobs, whose runs are named j<seed>.
func exactEngineJobs(spans []mapreduce.Span) int {
	first := -1
	for i := range spans {
		if n, ok := cpsRun(&spans[i]); ok && (first < 0 || n < first) {
			first = n
		}
	}
	jobs := 0
	for i := range spans {
		if n, ok := cpsRun(&spans[i]); ok && n < first+exactJobs {
			jobs++
		}
	}
	return jobs
}

func cpsRun(s *mapreduce.Span) (int, bool) {
	if s.Phase != mapreduce.PhaseJob || !strings.HasPrefix(s.Run, "j") {
		return 0, false
	}
	n, err := strconv.Atoi(s.Run[1:])
	return n, err == nil
}
