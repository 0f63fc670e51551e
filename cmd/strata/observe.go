package main

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"expvar"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof/* on the default mux
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/audit"
	"repro/internal/mapreduce"
	"repro/internal/worker"
)

// obs is the process-wide observability state configured by the global flags
// (strata [global flags] <command> ...). It owns the span file tracer, the
// live progress tracker, the optional debug HTTP server, and the metrics
// accumulated across every job the process runs.
type obs struct {
	logLevel  string
	tracePath string
	debugAddr string
	progress  bool
	backend   string
	workers   int

	level slog.Level // settled from -log by check

	executor mapreduce.Executor

	tracer    *mapreduce.JSONLTracer
	traceFile *os.File
	tracker   *audit.Tracker
	stopTick  chan struct{}
	tickDone  chan struct{}

	// procTrace is the process's trace id when -trace is set: every cluster
	// the command builds stamps its spans with it (runs numbered by runSeq),
	// so multi-run commands produce one coherent trace per process. started
	// anchors the debug server's uptime gauge.
	procTrace string
	runSeq    atomic.Int64
	started   time.Time

	mu      sync.Mutex
	metrics mapreduce.Metrics
	quality *audit.Report
}

var globalObs obs

// parseGlobalFlags consumes the observability flags that precede the
// subcommand and returns the remaining arguments (subcommand + its flags).
func parseGlobalFlags(args []string) ([]string, error) {
	fs := flag.NewFlagSet("strata", flag.ContinueOnError)
	// usage() already renders globalFlagsHelp, the single authoritative
	// global-flag listing; printing fs.PrintDefaults() too would show the
	// same flags twice.
	fs.Usage = usage
	fs.StringVar(&globalObs.logLevel, "log", "", "log level: debug, info, warn or error")
	fs.StringVar(&globalObs.tracePath, "trace", "", "write engine spans to this JSON-lines `file` (read back with \"strata trace\")")
	fs.StringVar(&globalObs.debugAddr, "debug-addr", "", "serve /metrics, /progress, /quality, /debug/pprof and /debug/vars on this `addr` (e.g. localhost:6060)")
	fs.BoolVar(&globalObs.progress, "progress", false, "print a live per-phase progress line to stderr while jobs run")
	fs.StringVar(&globalObs.backend, "backend", "inproc", "task execution `backend`: inproc, subprocess (worker child processes) or tcp (workers register over TCP)")
	fs.IntVar(&globalObs.workers, "workers", 2, "worker count for -backend subprocess or tcp")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := globalObs.check(); err != nil {
		fmt.Fprintf(os.Stderr, "strata: %v\n", err)
		return nil, err
	}
	return fs.Args(), nil
}

// check refuses the global flag values that cannot work — every usage error
// the global flags can make, found before anything starts — and settles the
// log level.
func (o *obs) check() error {
	// A tcp coordinator may start with no local worker and wait for external
	// ones; a subprocess pool is nothing but its children.
	if o.workers < 0 || (o.workers == 0 && o.backend == "subprocess") {
		return fmt.Errorf("-workers %d: want at least 1 for -backend subprocess, 0 or more for tcp", o.workers)
	}
	switch o.backend {
	case "", "inproc", "subprocess", "tcp":
	default:
		return fmt.Errorf("unknown -backend %q (want inproc, subprocess or tcp)", o.backend)
	}
	o.level = slog.LevelInfo
	switch {
	case strings.EqualFold(o.logLevel, "debug"):
		o.level = slog.LevelDebug
	case o.logLevel == "", strings.EqualFold(o.logLevel, "info"):
		// default
	case strings.EqualFold(o.logLevel, "warn"):
		o.level = slog.LevelWarn
	case strings.EqualFold(o.logLevel, "error"):
		o.level = slog.LevelError
	default:
		return fmt.Errorf("unknown -log level %q (want debug, info, warn or error)", o.logLevel)
	}
	return nil
}

// setup applies the parsed and checked flags: configures slog, opens the
// span file, starts the debug server and the worker runtime. Its errors are
// I/O failures, not usage errors. Call close() when the command finishes.
func (o *obs) setup() error {
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: o.level})))

	o.started = time.Now()
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			return fmt.Errorf("opening span file: %w", err)
		}
		o.traceFile = f
		o.tracer = mapreduce.NewJSONLTracer(f)
		var b [8]byte
		if _, err := cryptorand.Read(b[:]); err == nil {
			o.procTrace = hex.EncodeToString(b[:])
		} else {
			o.procTrace = "t-cli"
		}
	}

	// The tracker consumes the span stream whenever someone can watch it:
	// the -progress ticker or the debug server's /progress endpoint.
	if o.progress || o.debugAddr != "" {
		o.tracker = audit.NewTracker()
	}
	if o.debugAddr != "" {
		if err := o.serveDebug(); err != nil {
			return err
		}
	}
	if o.progress {
		o.startTicker()
	}
	return o.setupExecutor()
}

// setupExecutor starts the worker runtime selected by -backend (none for
// inproc). The executor is shared by every cluster the command builds
// (newCluster installs it) and drained in close().
func (o *obs) setupExecutor() error {
	switch o.backend {
	case "subprocess":
		exec, err := worker.NewSubprocessExecutor(worker.SubprocessConfig{Workers: o.workers})
		if err != nil {
			return fmt.Errorf("starting %d worker subprocesses: %w", o.workers, err)
		}
		slog.Info("worker pool started", "backend", "subprocess", "workers", o.workers)
		o.executor = exec
		return nil
	case "tcp":
		exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
		if err != nil {
			return fmt.Errorf("starting tcp coordinator: %w", err)
		}
		if o.workers > 0 {
			exec.SpawnLocal(o.workers)
			if err := exec.AwaitWorkers(o.workers, 10*time.Second); err != nil {
				exec.Close()
				return err
			}
		}
		slog.Info("worker pool started", "backend", "tcp", "addr", exec.Addr(),
			"workers", o.workers, "join", "strata worker -connect "+exec.Addr())
		o.executor = exec
	}
	return nil
}

// startTicker prints the tracker's one-line summary to stderr a few times a
// second, carriage-return style, until close().
func (o *obs) startTicker() {
	o.stopTick = make(chan struct{})
	o.tickDone = make(chan struct{})
	go func() {
		defer close(o.tickDone)
		tick := time.NewTicker(200 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-o.stopTick:
				return
			case <-tick.C:
				fmt.Fprintf(os.Stderr, "\r\033[K%s", o.tracker.Line())
			}
		}
	}()
}

// serveDebug starts the debug HTTP server: pprof (via the blank import),
// expvar at /debug/vars, and the accumulated job metrics in Prometheus text
// format at /metrics. Listening happens synchronously so a bad address fails
// the command instead of a background goroutine.
func (o *obs) serveDebug() error {
	expvar.Publish("strata_metrics", expvar.Func(func() any {
		m := o.snapshot()
		return m
	}))
	expvar.Publish("strata_shuffle", expvar.Func(func() any {
		type shuffleStatser interface{ ShuffleStats() worker.ShuffleStats }
		if s, ok := o.executor.(shuffleStatser); ok {
			return s.ShuffleStats()
		}
		return worker.ShuffleStats{}
	}))
	http.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m := o.snapshot()
		if err := m.WritePrometheus(w); err != nil {
			slog.Error("writing /metrics", "err", err)
			return
		}
		mapreduce.NewPromWriter(w).BuildInfo(o.started)
	})
	http.Handle("/progress", o.tracker)
	http.HandleFunc("/quality", func(w http.ResponseWriter, _ *http.Request) {
		o.mu.Lock()
		rep := o.quality
		o.mu.Unlock()
		if rep == nil {
			http.Error(w, "no quality report yet — run \"strata audit\"", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := rep.WritePrometheus(w); err != nil {
			slog.Error("writing /quality", "err", err)
		}
	})
	ln, err := net.Listen("tcp", o.debugAddr)
	if err != nil {
		return fmt.Errorf("debug server: %w", err)
	}
	slog.Info("debug server listening", "addr", ln.Addr().String(),
		"endpoints", "/metrics /progress /quality /debug/pprof /debug/vars")
	go func() {
		if err := http.Serve(ln, nil); err != nil {
			slog.Error("debug server", "err", err)
		}
	}()
	return nil
}

// close drains the worker pool, stops the progress ticker and flushes the
// span file, if any.
func (o *obs) close() error {
	if o.executor != nil {
		if err := o.executor.Close(); err != nil {
			slog.Warn("draining worker pool", "err", err)
		}
	}
	if o.stopTick != nil {
		close(o.stopTick)
		<-o.tickDone
		fmt.Fprintf(os.Stderr, "\r\033[K%s\n", o.tracker.Line())
	}
	if o.tracer == nil {
		return nil
	}
	if err := o.tracer.Close(); err != nil {
		return err
	}
	if err := o.traceFile.Close(); err != nil {
		return err
	}
	slog.Info("span file written", "path", o.tracePath)
	return nil
}

// record folds one job pipeline's metrics into the process-wide accumulator
// served at /metrics and /debug/vars.
func (o *obs) record(m mapreduce.Metrics) {
	o.mu.Lock()
	o.metrics.Add(m)
	o.mu.Unlock()
}

// snapshot copies the accumulated metrics.
func (o *obs) snapshot() mapreduce.Metrics {
	o.mu.Lock()
	defer o.mu.Unlock()
	var m mapreduce.Metrics
	m.Add(o.metrics)
	m.Job = "all"
	return m
}

// newCluster builds a cluster wired to the process observability state: the
// span tracer when -trace is set, the progress tracker when -progress or
// -debug-addr is set (both at once fan out through a TeeTracer), and per-key
// metrics whenever someone is looking.
func newCluster(slaves int) *mapreduce.Cluster {
	c := mapreduce.NewCluster(slaves)
	switch {
	case globalObs.tracer != nil && globalObs.tracker != nil:
		c.Tracer = mapreduce.NewTeeTracer(globalObs.tracer, globalObs.tracker)
	case globalObs.tracer != nil:
		c.Tracer = globalObs.tracer
	case globalObs.tracker != nil:
		c.Tracer = globalObs.tracker
	}
	if globalObs.tracer != nil || globalObs.debugAddr != "" {
		c.PerKeyMetrics = true
	}
	if globalObs.tracer != nil {
		// Each cluster run of the process traces under the process trace id,
		// runs numbered in creation order. The serve daemon overrides this
		// with per-request trace contexts; one-shot commands keep it.
		c.TraceContext = &mapreduce.TraceContext{
			Trace: globalObs.procTrace,
			Run:   fmt.Sprintf("r%d", globalObs.runSeq.Add(1)),
		}
	}
	if globalObs.executor != nil {
		c.Executor = globalObs.executor
	}
	return c
}

// recordMetrics is the subcommand-facing wrapper around globalObs.record.
func recordMetrics(m mapreduce.Metrics) { globalObs.record(m) }

// recordQuality publishes a finished audit report: /quality serves it, and
// its histogram series fold into the accumulated job metrics so they travel
// the /metrics Prometheus path too.
func recordQuality(rep *audit.Report) {
	globalObs.mu.Lock()
	globalObs.quality = rep
	globalObs.metrics.MergeCustom(rep.Histograms())
	globalObs.mu.Unlock()
}
