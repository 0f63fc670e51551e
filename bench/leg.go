package main

import (
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/serve"
	"repro/internal/worker"
)

// Latency classes. classSample is the ad-hoc nocache sample, the "op" of
// every serve workload; classJob is one cps.Run job.
const (
	classSample = "sample"
	classMutate = "mutate"
	classWarm   = "warm"
	classCached = "cached"
	classJob    = "job"
)

// opSample is one measured op as the client saw it.
type opSample struct {
	// start is when the op was due (open loop) or sent (closed loop), from
	// the start of the leg; lat runs from there to the last response byte.
	start, lat time.Duration
	// lag is how late an open-loop op was sent.
	lag   time.Duration
	bytes int
	err   error
}

// opLog collects one goroutine's samples; logs merge when the leg ends.
type opLog map[string][]opSample

func (l opLog) add(class string, s opSample) { l[class] = append(l[class], s) }

// stopRule ends a phase once it has run for minDur and every class it names
// has minOps ops: a run measures for -seconds, but never reports a p95 with
// fewer than ten samples beyond it.
type stopRule struct {
	minDur time.Duration
	minOps int
}

func (r stopRule) done(elapsed time.Duration, ops ...int) bool {
	if elapsed < r.minDur {
		return false
	}
	for _, n := range ops {
		if n < r.minOps {
			return false
		}
	}
	return true
}

// A leg is cut into blocks of consecutive ops, and every timing it reports is
// read from its quietest block. The machine is a shared one: a neighbour only
// ever slows a run, for seconds at a time, so the fastest block is the reading
// the neighbours touched least, and it is the same block structure on both
// sides of any comparison. A change to the program moves every block.
const (
	// quietBlocks is how many blocks a leg is cut into, when it has the ops.
	quietBlocks = 12
	// minBlockOps is the fewest ops a block may hold: its median needs them.
	minBlockOps = 20
)

// blockCount is how many blocks n ops are cut into.
func blockCount(n int) int {
	return max(1, min(quietBlocks, n/minBlockOps))
}

// opClock reads the wall clock and the process's CPU time whenever a
// primary-class op finishes, so that throughput and CPU per op can be taken
// block by block.
type opClock struct {
	mu   sync.Mutex
	cuts []opCut
}

type opCut struct {
	at  time.Time
	cpu time.Duration
}

func newOpClock() *opClock {
	return &opClock{cuts: []opCut{{at: time.Now(), cpu: cpuTime()}}}
}

// tick counts one finished primary-class op.
func (c *opClock) tick() {
	c.mu.Lock()
	c.cuts = append(c.cuts, opCut{at: time.Now(), cpu: cpuTime()})
	c.mu.Unlock()
}

func (c *opClock) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.cuts) - 1
}

// perBlock returns every block's throughput in ops/s and CPU per op in ms.
func (c *opClock) perBlock() (throughput, cpuMS []float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.cuts) - 1
	k := blockCount(n)
	for b := 0; b < k && n > 0; b++ {
		lo, hi := c.cuts[b*n/k], c.cuts[(b+1)*n/k]
		ops := float64((b+1)*n/k - b*n/k)
		throughput = append(throughput, ratio(ops, hi.at.Sub(lo.at).Seconds()))
		cpuMS = append(cpuMS, ms(hi.cpu-lo.cpu)/ops)
	}
	return throughput, cpuMS
}

// leg is one measured interval of a workload and every reading taken around
// it.
type leg struct {
	primary string
	wall    time.Duration
	classes opLog
	clock   *opClock
	rt0     runtimeSample
	rt1     runtimeSample
	// goroutines is the peak goroutine count during the leg; rssMB the
	// process's resident high-water mark when the leg ended, before any
	// end-of-leg check allocates.
	goroutines int
	rssMB      float64

	// Daemon workloads: /v1/stats before and after, engine metrics summed
	// over the leg's passes (Config.OnMetrics), worker shuffle counters.
	stats0, stats1     serve.Snapshot
	engine             mapreduce.Metrics
	passes             int
	shuffle0, shuffle1 worker.ShuffleStats

	// spans are the program's own spans (traced legs only).
	spans []mapreduce.Span

	// batch_cps_1e5: per-job readings of the first exactJobs measured jobs.
	cps cpsReadings

	// loneBodies are the sampled lone answers kept for the RunSQE comparison.
	loneBodies []loneBody
}

type loneBody struct {
	pick int
	body []byte
}

// measured wraps a driver: it reads runtime counters and the goroutine peak
// around it, starts the op clock and merges the per-goroutine logs the
// driver returns.
func (l *leg) measured(drive func() []opLog) {
	watch := watchGoroutines()
	l.rt0 = readRuntime()
	start := time.Now()
	l.clock = newOpClock()
	logs := drive()
	l.wall = time.Since(start)
	l.rt1 = readRuntime()
	l.goroutines = watch.Peak()
	l.rssMB = peakRSSMB()
	l.classes = opLog{}
	for _, log := range logs {
		for class, ops := range log {
			l.classes[class] = append(l.classes[class], ops...)
		}
	}
}

// counts returns attempted and failed ops over all classes, reporting the
// first few failures on stderr.
func (l *leg) counts() (attempted, failed int) {
	for class, ops := range l.classes {
		for _, op := range ops {
			attempted++
			if op.err != nil {
				if failed < 5 {
					fmt.Fprintf(os.Stderr, "bench: failed %s op: %v\n", class, op.err)
				}
				failed++
			}
		}
	}
	return attempted, failed
}

// latenciesOf returns the ops' latencies in ms, ascending. A failed op misses
// every latency limit: it is counted at the length of the whole leg.
func (l *leg) latenciesOf(ops []opSample) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		if op.err != nil {
			out[i] = ms(l.wall)
		} else {
			out[i] = ms(op.lat)
		}
	}
	sort.Float64s(out)
	return out
}

func (l *leg) latencies(class string) []float64 { return l.latenciesOf(l.classes[class]) }

// quietPercentile is the lowest, over the blocks of the class's ops in the
// order they were due, of each block's own p-quantile. A percentile of the
// whole leg is set by its slowest stretch — a neighbour's burst over a
// twentieth of the run is the whole p95 — while the quietest block reads the
// program with the least of the neighbours in it.
func (l *leg) quietPercentile(class string, p float64) float64 {
	ops := append([]opSample(nil), l.classes[class]...)
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].start < ops[j].start })
	k := blockCount(len(ops))
	quiet := 0.0
	for b := 0; b < k && len(ops) > 0; b++ {
		x := percentile(l.latenciesOf(ops[b*len(ops)/k:(b+1)*len(ops)/k]), p)
		if b == 0 || x < quiet {
			quiet = x
		}
	}
	return quiet
}

func (l *leg) okOps(class string) int {
	n := 0
	for _, op := range l.classes[class] {
		if op.err == nil {
			n++
		}
	}
	return n
}

// throughput is the quietest block's primary-class ops per second.
func (l *leg) throughput() float64 {
	perBlock, _ := l.clock.perBlock()
	return slices.Max(append(perBlock, 0))
}

// cpuPerOp is the quietest block's CPU time per primary-class op, in ms.
func (l *leg) cpuPerOp() float64 {
	_, perBlock := l.clock.perBlock()
	if len(perBlock) == 0 {
		return 0
	}
	return slices.Min(perBlock)
}

// clientSpans renders the leg's ops as spans under one run span, in the span
// file format `strata trace` reads.
func (l *leg) clientSpans(trace string) []mapreduce.Span {
	root := mapreduce.SpanID(trace, "run", "bench", "run", "0", "0")
	spans := []mapreduce.Span{{Job: "bench", Phase: "run", Trace: trace, Run: "run", ID: root, Wall: l.wall}}
	for class, ops := range l.classes {
		for i, op := range ops {
			spans = append(spans, mapreduce.Span{
				Job: "bench", Phase: class, Task: i, Trace: trace, Run: "run",
				ID:     mapreduce.SpanID(trace, "run", "bench", class, fmt.Sprint(i), "0"),
				Parent: root, Start: op.start, Wall: op.lat,
				Bytes: int64(op.bytes), Failed: op.err != nil,
			})
		}
	}
	return spans
}

// engineAcc sums the engine metrics of a daemon's passes (Config.OnMetrics).
type engineAcc struct {
	mu     sync.Mutex
	met    mapreduce.Metrics
	passes int
}

func (a *engineAcc) record(m mapreduce.Metrics) {
	a.mu.Lock()
	a.met.Add(m)
	a.passes++
	a.mu.Unlock()
}

// take returns what was recorded since the last take.
func (a *engineAcc) take() (mapreduce.Metrics, int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m, n := a.met, a.passes
	a.met, a.passes = mapreduce.Metrics{}, 0
	return m, n
}
