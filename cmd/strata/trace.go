package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/mapreduce"
)

// phaseOrder is the rendering order of span phases — execution order, with
// the whole-job span last. Serve-daemon phases lead (they enclose engine
// work); the remote-attempt child phases follow the attempt phases they
// decompose. Phases not listed here render after these, alphabetically.
var phaseOrder = []string{
	"request",
	"cache",
	"window",
	"batch",
	"pass",
	"demux",
	mapreduce.PhaseMap,
	mapreduce.PhaseCombine,
	mapreduce.PhaseShuffleSend,
	mapreduce.PhaseShuffleRecv,
	mapreduce.PhaseReduce,
	mapreduce.PhaseQueue,
	mapreduce.PhaseWire,
	mapreduce.PhaseDecode,
	mapreduce.PhaseExec,
	mapreduce.PhaseJob,
}

// phaseAgg accumulates one (job, phase) row of the timeline table.
type phaseAgg struct {
	spans   int
	failed  int
	records int64
	out     int64
	groups  int64
	bytes   int64
	sim     time.Duration
	simMax  time.Duration
	wall    time.Duration
	first   time.Duration
	last    time.Duration
	durs    []time.Duration // per-span wall (or simulated) durations, for percentiles
}

// cmdTrace summarizes one or more span files written with the global -trace
// flag: one per-phase timeline table per job, per-phase latency percentiles,
// the slowest task attempts, and — for spans carrying a distributed trace id —
// reconstructed trace trees with their critical paths. Multiple files (or
// glob patterns) merge into one view, which is how the spans of a coordinator
// and its workers, or a serve daemon's many passes, are read back together.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	top := fs.Int("top", 5, "list this many slowest task attempts per job (0 = none)")
	crit := fs.Int("crit", 3, "print critical paths for this many longest traces (0 = none)")
	subUsage(fs, "strata trace [-top 5] [-crit 3] <spans.jsonl> [more.jsonl | glob ...]")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		fs.Usage()
		return fmt.Errorf("trace: want at least one span file (or glob) argument")
	}
	files, err := expandSpanFiles(fs.Args())
	if err != nil {
		return err
	}
	var spans []mapreduce.Span
	for _, path := range files {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		part, err := mapreduce.ReadSpans(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("trace: %s: %w", path, err)
		}
		spans = append(spans, part...)
	}
	if len(spans) == 0 {
		return fmt.Errorf("trace: %s holds no spans", strings.Join(files, ", "))
	}
	if len(files) > 1 {
		fmt.Printf("%d spans from %d files\n\n", len(spans), len(files))
	}

	var jobs []string
	agg := map[string]map[string]*phaseAgg{} // job → phase → row
	for _, s := range spans {
		phases, ok := agg[s.Job]
		if !ok {
			phases = map[string]*phaseAgg{}
			agg[s.Job] = phases
			jobs = append(jobs, s.Job)
		}
		row := phases[s.Phase]
		if row == nil {
			row = &phaseAgg{first: s.Start}
			phases[s.Phase] = row
		}
		row.spans++
		if s.Failed {
			row.failed++
		}
		row.records += s.Records
		row.out += s.Out
		row.groups += s.Groups
		row.bytes += s.Bytes
		row.sim += s.Simulated
		if s.Simulated > row.simMax {
			row.simMax = s.Simulated
		}
		row.wall += s.Wall
		row.durs = append(row.durs, spanDur(s))
		if s.Start < row.first {
			row.first = s.Start
		}
		if end := s.Start + s.Wall; end > row.last {
			row.last = end
		}
	}

	for _, job := range jobs {
		phases := agg[job]
		fmt.Printf("job %q\n", job)
		tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "phase\tspans\tfailed\trecords\tout\tgroups\tbytes\tsim total\tsim max\twall\tp50\tp90\tp99\t")
		for _, phase := range orderedPhases(phases) {
			row := phases[phase]
			slices.Sort(row.durs)
			us := func(q float64) time.Duration { return quantile(row.durs, q).Round(time.Microsecond) }
			fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%d\t%v\t%v\t%v\t%v\t%v\t%v\t\n",
				phase, row.spans, row.failed, row.records, row.out, row.groups, row.bytes,
				row.sim.Round(time.Microsecond), row.simMax.Round(time.Microsecond),
				row.wall.Round(time.Microsecond),
				us(0.50), us(0.90), us(0.99))
		}
		tw.Flush()
		if m, s, r := jobBreakdown(phases); m+s+r > 0 {
			total := m + s + r
			fmt.Printf("simulated split: map %.0f%%  shuffle %.0f%%  reduce %.0f%%\n",
				100*frac(m, total), 100*frac(s, total), 100*frac(r, total))
		}
		if *top > 0 {
			printSlowest(spans, job, *top)
		}
		fmt.Println()
	}

	if *crit > 0 {
		printCriticalPaths(spans, *crit)
	}
	return nil
}

// expandSpanFiles resolves the argument list: arguments containing glob
// metacharacters expand via filepath.Glob, plain paths pass through (so a
// missing plain file still errors usefully at open time).
func expandSpanFiles(args []string) ([]string, error) {
	var files []string
	for _, a := range args {
		if !strings.ContainsAny(a, "*?[") {
			files = append(files, a)
			continue
		}
		matches, err := filepath.Glob(a)
		if err != nil {
			return nil, fmt.Errorf("trace: bad pattern %q: %w", a, err)
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("trace: pattern %q matches no files", a)
		}
		sort.Strings(matches)
		files = append(files, matches...)
	}
	return files, nil
}

// orderedPhases lists the job's phases: known phases in phaseOrder, then any
// others alphabetically (future phases degrade to a stable ordering instead
// of vanishing from the table).
func orderedPhases(phases map[string]*phaseAgg) []string {
	seen := make(map[string]bool, len(phases))
	var out []string
	for _, p := range phaseOrder {
		if phases[p] != nil {
			out = append(out, p)
			seen[p] = true
		}
	}
	var rest []string
	for p := range phases {
		if !seen[p] {
			rest = append(rest, p)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// spanDur is the span's duration for latency purposes: measured wall time
// when present, the simulated charge otherwise (frozen-clock and cost-model
// runs have no wall component).
func spanDur(s mapreduce.Span) time.Duration {
	if s.Wall > 0 {
		return s.Wall
	}
	return s.Simulated
}

// jobBreakdown sums the job's simulated time into the paper's three phases.
// Combine time is part of the map tasks' spans already; the send/recv legs
// together form the shuffle.
func jobBreakdown(phases map[string]*phaseAgg) (m, s, r time.Duration) {
	if row := phases[mapreduce.PhaseMap]; row != nil {
		m += row.sim
	}
	for _, p := range []string{mapreduce.PhaseShuffleSend, mapreduce.PhaseShuffleRecv} {
		if row := phases[p]; row != nil {
			s += row.sim
		}
	}
	if row := phases[mapreduce.PhaseReduce]; row != nil {
		r += row.sim
	}
	return m, s, r
}

func frac(d, total time.Duration) float64 {
	if total <= 0 {
		return 0
	}
	return float64(d) / float64(total)
}

// printSlowest lists the job's slowest map/reduce attempts by simulated time
// — the tasks with the most records to chew through surface here.
func printSlowest(spans []mapreduce.Span, job string, n int) {
	var tasks []mapreduce.Span
	for _, s := range spans {
		if s.Job == job && (s.Phase == mapreduce.PhaseMap || s.Phase == mapreduce.PhaseReduce) {
			tasks = append(tasks, s)
		}
	}
	sort.SliceStable(tasks, func(i, j int) bool { return tasks[i].Simulated > tasks[j].Simulated })
	if len(tasks) > n {
		tasks = tasks[:n]
	}
	fmt.Println("slowest task attempts:")
	for _, s := range tasks {
		status := "ok"
		if s.Failed {
			status = "FAILED"
		}
		fmt.Printf("  %-6s task %d attempt %d: sim %v, %d recs, %s\n",
			s.Phase, s.Task, s.Attempt, s.Simulated.Round(time.Microsecond), s.Records, status)
	}
}

// traceTree is one reconstructed distributed trace: the spans sharing a
// trace id, indexed for parent/child walking.
type traceTree struct {
	id       string
	byID     map[uint64]*mapreduce.Span
	children map[uint64][]*mapreduce.Span
	roots    []*mapreduce.Span
	total    time.Duration // longest root duration
}

// buildTraceTrees groups traced spans by trace id and links them into trees.
// A span is a root when it has no parent, or when its parent span is absent
// from the merged files (a partial capture still renders as a forest).
func buildTraceTrees(spans []mapreduce.Span) []*traceTree {
	byTrace := map[string][]*mapreduce.Span{}
	var order []string
	for i := range spans {
		s := &spans[i]
		if s.Trace == "" || s.ID == 0 {
			continue
		}
		if _, ok := byTrace[s.Trace]; !ok {
			order = append(order, s.Trace)
		}
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var trees []*traceTree
	for _, id := range order {
		t := &traceTree{
			id:       id,
			byID:     map[uint64]*mapreduce.Span{},
			children: map[uint64][]*mapreduce.Span{},
		}
		for _, s := range byTrace[id] {
			// First writer wins on id collisions (re-emitted spans); the
			// children index still holds every span.
			if _, ok := t.byID[s.ID]; !ok {
				t.byID[s.ID] = s
			}
		}
		for _, s := range byTrace[id] {
			if s.Parent != 0 && t.byID[s.Parent] != nil && s.Parent != s.ID {
				t.children[s.Parent] = append(t.children[s.Parent], s)
			} else {
				t.roots = append(t.roots, s)
			}
		}
		for _, r := range t.roots {
			if d := spanDur(*r); d > t.total {
				t.total = d
			}
		}
		trees = append(trees, t)
	}
	return trees
}

// printCriticalPaths renders the critical path of the n longest traces: from
// each trace's longest root, repeatedly descend into the child contributing
// the most time, printing each hop with its share of the root's duration.
func printCriticalPaths(spans []mapreduce.Span, n int) {
	trees := buildTraceTrees(spans)
	if len(trees) == 0 {
		return
	}
	sort.SliceStable(trees, func(i, j int) bool { return trees[i].total > trees[j].total })
	shown := trees
	if len(shown) > n {
		shown = shown[:n]
	}
	fmt.Printf("traces: %d (showing critical paths of the %d longest)\n", len(trees), len(shown))
	for _, t := range shown {
		var root *mapreduce.Span
		for _, r := range t.roots {
			if root == nil || spanDur(*r) > spanDur(*root) {
				root = r
			}
		}
		if root == nil {
			continue
		}
		total := spanDur(*root)
		fmt.Printf("trace %s: %d spans, %v\n", t.id, len(t.byID), total.Round(time.Microsecond))
		depth := 0
		for s := root; s != nil; {
			d := spanDur(*s)
			fmt.Printf("  %s%s %v (%.0f%%)\n",
				strings.Repeat("  ", depth), spanLabel(*s),
				d.Round(time.Microsecond), 100*frac(d, total))
			// Critical child: the one contributing the most time. Durations,
			// not end offsets, so spans from different processes (whose Start
			// offsets have different time bases) compare meaningfully.
			var next *mapreduce.Span
			for _, c := range t.children[s.ID] {
				if next == nil || spanDur(*c) > spanDur(*next) {
					next = c
				}
			}
			s = next
			depth++
		}
	}
	fmt.Println()
}

// spanLabel names one critical-path hop.
func spanLabel(s mapreduce.Span) string {
	var b strings.Builder
	b.WriteString(s.Phase)
	switch s.Phase {
	case "request", "window", "cache", "batch", "pass", "demux":
		// Serve spans: the run id already says which batch/pass.
	case mapreduce.PhaseJob:
		fmt.Fprintf(&b, " %q", s.Job)
	default:
		fmt.Fprintf(&b, " task %d", s.Task)
		if s.Attempt > 1 {
			fmt.Fprintf(&b, " attempt %d", s.Attempt)
		}
	}
	if s.Run != "" {
		fmt.Fprintf(&b, " [%s]", s.Run)
	}
	if s.Worker != "" {
		fmt.Fprintf(&b, " @%s", s.Worker)
	}
	return b.String()
}
