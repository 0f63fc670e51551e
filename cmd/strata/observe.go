package main

import (
	cryptorand "crypto/rand"
	"encoding/hex"
	"errors"
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

	"repro/internal/mapreduce"
	"repro/internal/worker"
)

// obs is the process-wide observability state configured by the global flags
// (strata [global flags] <command> ...). It owns the span file tracer, the
// optional debug HTTP server, and the metrics accumulated across every job
// the process runs.
type obs struct {
	logLevel  string
	tracePath string
	debugAddr string
	backend   string
	workers   int

	level slog.Level // settled from -log by check

	executor mapreduce.Executor

	tracer    *mapreduce.JSONLTracer
	traceFile *os.File
	debugLn   net.Listener

	// procTrace is the process's trace id when -trace is set: every cluster
	// the command builds stamps its spans with it (runs numbered by runSeq),
	// so multi-run commands produce one coherent trace per process. started
	// anchors the debug server's uptime gauge.
	procTrace string
	runSeq    atomic.Int64
	started   time.Time

	mu      sync.Mutex
	metrics mapreduce.Metrics
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
	fs.StringVar(&globalObs.debugAddr, "debug-addr", "", "serve /metrics and /debug/pprof on this `addr` (e.g. localhost:6060)")
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
	if o.debugAddr != "" {
		if err := o.serveDebug(); err != nil {
			return err
		}
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

// serveDebug starts the debug HTTP server: the accumulated job metrics in
// Prometheus text format at /metrics and pprof (registered on the default
// mux by the blank import) under /debug/pprof/, nothing else. It installs no
// tracer, so a profile taken through it profiles the untraced program.
// Listening happens synchronously so a bad address fails the command instead
// of a background goroutine.
func (o *obs) serveDebug() error {
	mux := http.NewServeMux()
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		m := o.snapshot()
		if err := m.WritePrometheus(w); err != nil {
			slog.Error("writing /metrics", "err", err)
			return
		}
		mapreduce.NewPromWriter(w).BuildInfo(o.started)
	})
	ln, err := net.Listen("tcp", o.debugAddr)
	if err != nil {
		return fmt.Errorf("debug server: %w", err)
	}
	o.debugLn = ln
	slog.Info("debug server listening", "addr", ln.Addr().String(),
		"endpoints", "/metrics /debug/pprof")
	go func() {
		if err := http.Serve(ln, mux); err != nil && !errors.Is(err, net.ErrClosed) {
			slog.Error("debug server", "err", err)
		}
	}()
	return nil
}

// close drains the worker pool, stops the debug server and flushes the span
// file, if any.
func (o *obs) close() error {
	if o.debugLn != nil {
		o.debugLn.Close()
	}
	if o.executor != nil {
		if err := o.executor.Close(); err != nil {
			slog.Warn("draining worker pool", "err", err)
		}
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
// served at /metrics.
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
// span tracer when -trace is set (nil otherwise: the engine's one off
// switch), and per-key metrics whenever someone is looking.
func newCluster(slaves int) *mapreduce.Cluster {
	c := mapreduce.NewCluster(slaves)
	if globalObs.tracer != nil || globalObs.debugAddr != "" {
		c.PerKeyMetrics = true
	}
	if globalObs.tracer != nil {
		c.Tracer = globalObs.tracer
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
