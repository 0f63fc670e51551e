package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"repro/internal/dataset"
	"repro/internal/mapreduce"
	"repro/internal/query"
	"repro/internal/stratified"
)

// runResult is what one run of one workload measured, as written to
// <out>/<workload>.trace<0|1>.json.
type runResult struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   float64 `json:"seconds"`
	Traced    bool    `json:"traced"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Ops is the measured op count per latency class.
	Ops         map[string]int `json:"ops"`
	LoadAvg     float64        `json:"loadavg_before"`
	Metrics     values         `json:"metrics"`
	Environment environment    `json:"environment"`
}

// subject is a set-up workload: a daemon or the CPS batch.
type subject interface {
	// drive runs the workload's traffic until the rule says stop.
	drive(stopRule) *leg
	close()
}

// measure drives one measured leg; with a tracer it keeps the spans the
// program emitted during the leg, and only those.
func measure(s subject, tracer *mapreduce.MemTracer, rule stopRule) *leg {
	if tracer == nil {
		return s.drive(rule)
	}
	tracer.Reset()
	l := s.drive(rule)
	l.spans = tracer.Spans()
	return l
}

func (b *batch) close() {}

func setUp(w workload, seed int64, tracer *mapreduce.MemTracer) (subject, time.Duration, error) {
	if w.Kind == kindCPS {
		b, err := newBatch(w, seed, tracer)
		if err != nil {
			return nil, 0, err
		}
		return b, b.setup, nil
	}
	d, err := newDaemon(w, seed, tracer)
	if err != nil {
		return nil, 0, err
	}
	return d, d.setup, nil
}

// tearDown closes a subject and returns its memory, so that the next set-up
// of the same process starts from the same heap.
func tearDown(s subject) {
	s.close()
	runtime.GC()
	debug.FreeOSMemory()
}

// runWorkload runs one workload once. Untraced, it sets up SetupReps times
// (setup_s is the median), measures for `seconds` and reports the end-to-end
// metrics. Traced, it measures an untraced reference leg and a traced leg of
// seconds/2 each, runs the probes and reports the per-layer metrics.
func runWorkload(w workload, seed int64, seconds float64, traced bool, outDir string) (*runResult, error) {
	res := &runResult{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		LoadAvg: loadAvg1(), Environment: readEnvironment(),
	}
	var legs []*leg
	if !traced {
		var setups []float64
		var s subject
		for rep := 0; rep < w.SetupReps; rep++ {
			if s != nil {
				tearDown(s)
			}
			var took time.Duration
			var err error
			if s, took, err = setUp(w, seed, nil); err != nil {
				return nil, err
			}
			setups = append(setups, took.Seconds())
		}
		l := measure(s, nil, stopRule{minDur: durationOf(seconds), minOps: w.MinOps})
		err := finishLeg(seed, s, l)
		s.close()
		if err != nil {
			return nil, err
		}
		if res.Metrics, err = endToEndValues(l, median(setups)); err != nil {
			return nil, err
		}
		for name, x := range classValues(w, l) {
			res.Metrics[name] = x
		}
		legs = []*leg{l}
		if err := writeSpans(filepath.Join(outDir, w.Name+".spans.jsonl"), l.clientSpans(w.Name)); err != nil {
			return nil, err
		}
	} else {
		half := stopRule{minDur: durationOf(seconds / 2), minOps: w.MinOps / 2}
		// The reference leg reports latency_p95_ms, so it keeps the full
		// minimum of ops: ten samples beyond its p95.
		refRule := stopRule{minDur: half.minDur, minOps: w.MinOps}
		s, _, err := setUp(w, seed, nil)
		if err != nil {
			return nil, err
		}
		ref := measure(s, nil, refRule)
		err = finishLeg(seed, s, ref)
		tearDown(s)
		if err != nil {
			return nil, err
		}

		tracer := mapreduce.NewMemTracer()
		if s, _, err = setUp(w, seed, tracer); err != nil {
			return nil, err
		}
		tr := measure(s, tracer, half)
		err = finishLeg(seed, s, tr)
		var probes *prober
		if err == nil {
			probes, err = runProbes(w, seed, s)
		}
		s.close()
		if err != nil {
			return nil, err
		}
		res.Metrics = layerValues(w, ref, tr, probes.values)
		for name, x := range classValues(w, ref) {
			res.Metrics[name] = x
		}
		legs = []*leg{ref, tr}
		spans := append(tr.clientSpans(w.Name), probes.spans...)
		spans = append(spans, tr.spans...)
		if err := writeSpans(filepath.Join(outDir, w.Name+".traced.spans.jsonl"), spans); err != nil {
			return nil, err
		}
	}
	res.Ops = map[string]int{}
	for _, l := range legs {
		a, f := l.counts()
		res.Attempted += a
		res.Failed += f
		for class, ops := range l.classes {
			res.Ops[class] += len(ops)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

func durationOf(seconds float64) time.Duration {
	return time.Duration(seconds * float64(time.Second))
}

// finishLeg runs the checks that wait for the end of a leg: on lone_open_1e5
// the kept lone answers are compared with a direct RunSQE on the same splits
// and seed. A mismatch turns that many ops into failed ops.
func finishLeg(seed int64, s subject, l *leg) error {
	d, ok := s.(*daemon)
	if !ok || len(l.loneBodies) == 0 {
		return nil
	}
	splits, err := dataset.Partition(d.pop, dataset.DefaultSplits(serveSlaves), dataset.Contiguous, rand.New(rand.NewSource(seed)))
	if err != nil {
		return err
	}
	c := mapreduce.NewCluster(serveSlaves)
	direct := map[int]*query.Answer{}
	var differ []error
	for _, kept := range l.loneBodies {
		ans := direct[kept.pick]
		if ans == nil {
			ans, _, err = stratified.RunSQE(c, d.tpls.Adhoc[kept.pick].Q, d.pop.Schema(), splits, stratified.Options{Seed: seed})
			if err != nil {
				return err
			}
			direct[kept.pick] = ans
		}
		if err := sameIndividuals(kept.body, ans); err != nil {
			differ = append(differ, err)
		}
	}
	// The promise holds for a query that had its pass to itself. When a stall
	// of the machine delivers two lone arrivals inside one window they share a
	// RunMQE pass, whose draws differ from RunSQE's by design. /v1/stats counts
	// the requests that rode a pass beyond its first: that many answers, and a
	// partner each, are exempt.
	mismatched := len(differ) - 2*int(l.stats1.Coalesced-l.stats0.Coalesced)
	ops := l.classes[classSample]
	for i := 0; i < mismatched && i < len(ops); i++ {
		if i < 5 {
			fmt.Fprintf(os.Stderr, "bench: lone answer differs from direct RunSQE: %v\n", differ[i])
		}
		if ops[i].err == nil {
			ops[i].err = fmt.Errorf("lone answer differs from direct RunSQE")
		}
	}
	return nil
}

// runProbes runs the workload's probes on the traced subject's own inputs.
func runProbes(w workload, seed int64, s subject) (*prober, error) {
	var p *prober
	switch s := s.(type) {
	case *daemon:
		p = newProber(w, seed, s.pop, s.tpls.Adhoc)
		p.common()
		if p.err == nil {
			p.frontend(s.srv.Handler(), sampleBody(s.tpls.Adhoc[0].Text, seed, false))
		}
		if p.err == nil && w.Kind == kindLive {
			p.livePopulation(s.tpls.Standing)
		}
	case *batch:
		p = newProber(w, seed, s.pop, s.checks)
		p.common()
	}
	return p, p.err
}

// contractLine is the last line of a run's standard output: one JSON object
// with exactly these keys. Untraced it carries every end_to_end metric of
// BENCHMARK.json, traced every per_layer metric; a per-layer metric of a
// layer the workload does not exercise reads 0.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) contractLine() contractLine {
	defs := endToEnd
	if r.Traced {
		defs = tracedMetrics()
	}
	line := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractValue{}}
	for _, d := range defs {
		line.Metrics[d.Name] = contractValue{Value: r.Metrics[d.Name], Unit: d.Unit}
	}
	return line
}

// print lists every metric the run measured by name, with its unit.
func (r *runResult) print() {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("%s  seed %d  %s  %.0fs  ops %v  attempted %d  failed %d\n",
		r.Workload, r.Seed, mode, r.Seconds, r.Ops, r.Attempted, r.Failed)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range allMetrics() {
		units[d.Name] = d.Unit
	}
	for _, name := range names {
		fmt.Printf("  %-40s %14.4f %s\n", name, r.Metrics[name], units[name])
	}
}

func (r *runResult) write(outDir string) error {
	buf, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	suffix := ".trace0.json"
	if r.Traced {
		suffix = ".trace1.json"
	}
	return os.WriteFile(filepath.Join(outDir, r.Workload+suffix), append(buf, '\n'), 0o644)
}
