package main

import (
	"os"
	"sort"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/stats"
)

// Span arithmetic over the spans the program emits through its existing
// tracer hooks (serve.Config.Tracer, Cluster.Tracer).

// spanKey identifies a span within one span file.
type spanKey struct {
	trace string
	id    uint64
}

// clockOf names the clock a span's Start offset is measured on: the daemon's
// own spans count from daemon start, an engine run's spans from the start of
// that run. Only spans on one clock can be laid over each other.
func clockOf(s *mapreduce.Span) string {
	if s.Job == "serve" {
		return "serve"
	}
	return s.Run + "/" + s.Job
}

// selfTimes returns, for every span with an id, its duration minus the part
// of it its children cover. Children that overlap each other are counted
// once: their intervals are merged, per clock, before they are subtracted.
func selfTimes(spans []mapreduce.Span) map[spanKey]time.Duration {
	children := map[spanKey][]*mapreduce.Span{}
	for i := range spans {
		s := &spans[i]
		if s.ID != 0 && s.Parent != 0 && s.Parent != s.ID {
			p := spanKey{s.Trace, s.Parent}
			children[p] = append(children[p], s)
		}
	}
	self := make(map[spanKey]time.Duration, len(spans))
	for i := range spans {
		s := &spans[i]
		if s.ID == 0 {
			continue
		}
		key := spanKey{s.Trace, s.ID}
		covered := coveredBy(children[key])
		if covered > s.Wall {
			covered = s.Wall
		}
		self[key] = s.Wall - covered
	}
	return self
}

// coveredBy is the total length of the union of the spans' intervals, merged
// per clock.
func coveredBy(spans []*mapreduce.Span) time.Duration {
	byClock := map[string][]*mapreduce.Span{}
	for _, s := range spans {
		c := clockOf(s)
		byClock[c] = append(byClock[c], s)
	}
	var total time.Duration
	for _, group := range byClock {
		sort.Slice(group, func(i, j int) bool { return group[i].Start < group[j].Start })
		var end time.Duration
		for i, s := range group {
			lo, hi := s.Start, s.Start+s.Wall
			if i == 0 || lo > end {
				total += hi - lo
				end = hi
			} else if hi > end {
				total += hi - end
				end = hi
			}
		}
	}
	return total
}

// phaseStats sums what the ladder reads per (job class, phase).
type phaseStats struct {
	n    int
	wall time.Duration
	self time.Duration
	durs []float64 // ms
}

// spanTable indexes a traced leg's program spans: serve phases by name, and
// engine phases over all engine jobs.
type spanTable struct {
	serve  map[string]*phaseStats
	engine map[string]*phaseStats
	// mapWallByJob groups map-task walls (ms) by the engine job they ran in.
	mapWallByJob map[string][]float64
}

func tabulate(spans []mapreduce.Span) *spanTable {
	t := &spanTable{
		serve: map[string]*phaseStats{}, engine: map[string]*phaseStats{},
		mapWallByJob: map[string][]float64{},
	}
	self := selfTimes(spans)
	for i := range spans {
		s := &spans[i]
		table := t.engine
		if s.Job == "serve" {
			table = t.serve
		}
		ps := table[s.Phase]
		if ps == nil {
			ps = &phaseStats{}
			table[s.Phase] = ps
		}
		ps.n++
		ps.wall += s.Wall
		ps.self += self[spanKey{s.Trace, s.ID}]
		ps.durs = append(ps.durs, ms(s.Wall))
		if s.Job != "serve" && s.Phase == mapreduce.PhaseMap && !s.Failed {
			job := s.Trace + "/" + clockOf(s)
			t.mapWallByJob[job] = append(t.mapWallByJob[job], ms(s.Wall))
		}
	}
	return t
}

func (t *spanTable) get(table map[string]*phaseStats, phase string) *phaseStats {
	if ps := table[phase]; ps != nil {
		return ps
	}
	return &phaseStats{}
}

// selfMS is a serve phase's mean self time per span.
func (t *spanTable) selfMS(phase string) float64 {
	ps := t.get(t.serve, phase)
	return ratio(ms(ps.self), float64(ps.n))
}

// perJobMS is an engine phase's total wall per engine job.
func (t *spanTable) perJobMS(phase string) float64 {
	jobs := t.get(t.engine, mapreduce.PhaseJob).n
	return ratio(ms(t.get(t.engine, phase).wall), float64(jobs))
}

// mapTaskSkew is the mean over engine jobs of slowest map task / median map
// task.
func (t *spanTable) mapTaskSkew() float64 {
	var ratios []float64
	for _, walls := range t.mapWallByJob {
		s := sortedCopy(walls)
		if m := percentile(s, 0.5); m > 0 {
			ratios = append(ratios, s[len(s)-1]/m)
		}
	}
	return stats.Mean(ratios)
}

// writeSpans writes spans as JSON lines, the format `strata trace` reads.
func writeSpans(path string, spans []mapreduce.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tr := mapreduce.NewJSONLTracer(f)
	for i := range spans {
		tr.Emit(spans[i])
	}
	if err := tr.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
