package audit

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/mapreduce"
)

// phaseOrder is the rendering order of engine phases.
var phaseOrder = []string{
	mapreduce.PhaseMap,
	mapreduce.PhaseCombine,
	mapreduce.PhaseShuffleSend,
	mapreduce.PhaseShuffleRecv,
	mapreduce.PhaseReduce,
}

// PhaseProgress is the live state of one phase of one job.
type PhaseProgress struct {
	Phase string `json:"phase"`
	// Done counts finished units (task attempts that succeeded, or shuffle
	// legs); Total is the expected unit count, 0 when unknown (no
	// JobObserver announcement was seen).
	Done  int `json:"done"`
	Total int `json:"total,omitempty"`
	// Failed counts fault-injected attempts that had to be re-executed.
	Failed  int   `json:"failed,omitempty"`
	Records int64 `json:"records,omitempty"`
	Bytes   int64 `json:"bytes,omitempty"`
}

// Straggler flags one task attempt whose simulated duration is an outlier
// against its phase's median — the speculative-execution candidates of the
// MapReduce fault model.
type Straggler struct {
	Phase     string        `json:"phase"`
	Task      int           `json:"task"`
	Attempt   int           `json:"attempt"`
	Simulated time.Duration `json:"sim_ns"`
	// Factor is Simulated over the phase median.
	Factor float64 `json:"factor"`
}

// JobProgress is the live state of one job (keyed by job name; re-runs of
// the same name reset the counters and bump Runs).
type JobProgress struct {
	Job string `json:"job"`
	// Runs counts how many times this job name has started; the phase
	// counters always describe the latest run.
	Runs int  `json:"runs"`
	Done bool `json:"done"`
	// Phases lists per-phase progress in execution order; phases that have
	// produced no spans yet appear with Done 0 once totals are known.
	Phases []PhaseProgress `json:"phases"`
	// ShuffleBytes accumulates the run's shuffle-send volume.
	ShuffleBytes int64 `json:"shuffle_bytes"`
	// Stragglers lists attempt-latency outliers of the latest run.
	Stragglers []Straggler `json:"stragglers,omitempty"`
}

// ProgressReport is the full snapshot served at /progress.
type ProgressReport struct {
	Jobs []JobProgress `json:"jobs"`
}

// attemptRec remembers one map/reduce attempt for straggler detection.
type attemptRec struct {
	phase   string
	task    int
	attempt int
	sim     time.Duration
}

type trackedJob struct {
	name      string
	runs      int
	mapTotal  int
	redTotal  int
	done      bool
	phases    map[string]*PhaseProgress
	attempts  []attemptRec
	shufBytes int64
}

func (j *trackedJob) phase(name string) *PhaseProgress {
	p := j.phases[name]
	if p == nil {
		p = &PhaseProgress{Phase: name}
		j.phases[name] = p
	}
	return p
}

func (j *trackedJob) reset() {
	j.phases = make(map[string]*PhaseProgress, len(phaseOrder))
	j.attempts = j.attempts[:0]
	j.shufBytes = 0
	j.done = false
}

// Tracker is a streaming Tracer consumer that aggregates the engine's span
// stream into live per-phase progress. It implements mapreduce.Tracer and
// mapreduce.JobObserver; install it on a cluster (alone or inside a
// TeeTracer next to a span-file writer) and read Snapshot — or serve it,
// it is an http.Handler returning the snapshot as JSON.
//
// The engine emits task spans from its serial accounting sections, so
// mid-phase the tracker shows the announced totals with a zero done-count;
// multi-job pipelines (MR-CPS runs four jobs) and repeated audit runs
// progress job by job.
type Tracker struct {
	// StragglerFactor flags attempts at least this many times slower than
	// their phase median (default 4; straggler detection also needs at
	// least 4 attempts in the phase).
	StragglerFactor float64

	mu    sync.Mutex
	jobs  []*trackedJob
	index map[string]*trackedJob
}

// NewTracker returns an empty progress tracker.
func NewTracker() *Tracker {
	return &Tracker{index: make(map[string]*trackedJob)}
}

// Enabled reports true: a installed tracker wants the span stream.
func (t *Tracker) Enabled() bool { return true }

func (t *Tracker) job(name string) *trackedJob {
	j := t.index[name]
	if j == nil {
		j = &trackedJob{name: name}
		j.reset()
		t.index[name] = j
		t.jobs = append(t.jobs, j)
	}
	return j
}

// JobStarted implements mapreduce.JobObserver: it announces a run's task
// totals before any span exists. A re-announcement of a finished job name
// starts a fresh run of that job.
func (t *Tracker) JobStarted(job string, mapTasks, reduceTasks int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.job(job)
	if j.done || j.runs == 0 {
		j.reset()
	}
	j.runs++
	j.mapTotal, j.redTotal = mapTasks, reduceTasks
}

// Emit implements mapreduce.Tracer.
func (t *Tracker) Emit(s mapreduce.Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	j := t.job(s.Job)
	if s.Phase == mapreduce.PhaseJob {
		j.done = true
		return
	}
	p := j.phase(s.Phase)
	switch s.Phase {
	case mapreduce.PhaseMap, mapreduce.PhaseReduce:
		if s.Failed {
			p.Failed++
		} else {
			p.Done++
		}
		j.attempts = append(j.attempts, attemptRec{s.Phase, s.Task, s.Attempt, s.Simulated})
	default:
		p.Done++
	}
	p.Records += s.Records
	p.Bytes += s.Bytes
	if s.Phase == mapreduce.PhaseShuffleSend {
		j.shufBytes += s.Bytes
	}
}

func (t *Tracker) stragglerFactor() float64 {
	if t.StragglerFactor > 0 {
		return t.StragglerFactor
	}
	return 4
}

// stragglers computes the attempt-latency outliers of one job: attempts at
// least factor× their phase's median simulated duration, when the phase has
// enough attempts for a median to mean anything.
func (j *trackedJob) stragglers(factor float64) []Straggler {
	var out []Straggler
	for _, phase := range []string{mapreduce.PhaseMap, mapreduce.PhaseReduce} {
		var sims []time.Duration
		for _, a := range j.attempts {
			if a.phase == phase {
				sims = append(sims, a.sim)
			}
		}
		if len(sims) < 4 {
			continue
		}
		sorted := append([]time.Duration(nil), sims...)
		sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
		median := sorted[len(sorted)/2]
		if median <= 0 {
			continue
		}
		for _, a := range j.attempts {
			if a.phase != phase {
				continue
			}
			if f := float64(a.sim) / float64(median); f >= factor {
				out = append(out, Straggler{
					Phase: a.phase, Task: a.task, Attempt: a.attempt,
					Simulated: a.sim, Factor: f,
				})
			}
		}
	}
	return out
}

// totals fills the expected unit count of each phase from the announced
// task counts: map-side phases have one unit per map task, reduce-side one
// per reducer. Map/reduce totals ignore fault re-attempts (Done counts only
// successful attempts, so done==total still marks phase completion).
func (j *trackedJob) totalFor(phase string) int {
	switch phase {
	case mapreduce.PhaseMap, mapreduce.PhaseCombine, mapreduce.PhaseShuffleSend:
		return j.mapTotal
	case mapreduce.PhaseShuffleRecv, mapreduce.PhaseReduce:
		return j.redTotal
	}
	return 0
}

// Snapshot returns the current progress of every job seen, in first-start
// order.
func (t *Tracker) Snapshot() ProgressReport {
	t.mu.Lock()
	defer t.mu.Unlock()
	rep := ProgressReport{}
	for _, j := range t.jobs {
		jp := JobProgress{
			Job: j.name, Runs: j.runs, Done: j.done, ShuffleBytes: j.shufBytes,
		}
		for _, phase := range phaseOrder {
			p, seen := j.phases[phase]
			total := j.totalFor(phase)
			if !seen {
				if total == 0 || phase == mapreduce.PhaseCombine {
					// Unknown totals, or a job whose stage combines nothing:
					// only report phases that produced spans.
					continue
				}
				p = &PhaseProgress{Phase: phase}
			}
			cp := *p
			cp.Total = total
			jp.Phases = append(jp.Phases, cp)
		}
		jp.Stragglers = j.stragglers(t.stragglerFactor())
		rep.Jobs = append(rep.Jobs, jp)
	}
	return rep
}

// ServeHTTP serves the snapshot as JSON — the /progress endpoint.
func (t *Tracker) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(t.Snapshot())
}

// Line renders a one-line terminal summary: the latest job's per-phase
// done/total counts plus the finished-job tally — the CLI's -progress
// ticker output.
func (t *Tracker) Line() string {
	rep := t.Snapshot()
	if len(rep.Jobs) == 0 {
		return "progress: waiting for first job"
	}
	doneJobs := 0
	for _, j := range rep.Jobs {
		if j.Done {
			doneJobs++
		}
	}
	j := rep.Jobs[len(rep.Jobs)-1]
	var b strings.Builder
	fmt.Fprintf(&b, "progress: %s", j.Job)
	if j.Runs > 1 {
		fmt.Fprintf(&b, " (run %d)", j.Runs)
	}
	for _, p := range j.Phases {
		short := p.Phase
		switch p.Phase {
		case mapreduce.PhaseShuffleSend:
			short = "send"
		case mapreduce.PhaseShuffleRecv:
			short = "recv"
		case mapreduce.PhaseCombine:
			short = "combine"
		}
		if p.Total > 0 {
			fmt.Fprintf(&b, " %s %d/%d", short, p.Done, p.Total)
		} else {
			fmt.Fprintf(&b, " %s %d", short, p.Done)
		}
	}
	if j.ShuffleBytes > 0 {
		fmt.Fprintf(&b, " %dB shuffled", j.ShuffleBytes)
	}
	if n := len(j.Stragglers); n > 0 {
		fmt.Fprintf(&b, " [%d straggler(s)]", n)
	}
	fmt.Fprintf(&b, " — %d job(s) finished", doneJobs)
	return b.String()
}
