package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/serve"
)

// drainTimeout is the graceful shutdown budget on SIGTERM/SIGINT.
const drainTimeout = 10 * time.Second

// cmdServe runs the resident sampling daemon: it loads (or generates) a
// population once, keeps it partitioned in memory, and answers SSD queries
// over HTTP, coalescing queries that arrive within -window into one
// MapReduce pass (MR-MQE). See DESIGN.md §12.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8372", "listen address")
	n := fs.Int("n", 100000, "population size when generating")
	dataPath := fs.String("data", "", "path to a population CSV (author schema); empty = generate")
	seed := fs.Int64("seed", 1, "population + partition seed (match strata sample's -seed for identical answers)")
	slaves := fs.Int("slaves", 4, "cluster slaves per pass")
	numSplits := fs.Int("splits", 0, "resident partition splits (0 = max(2*slaves, 2*GOMAXPROCS); match strata sample's -splits for identical answers)")
	adaptiveWindow := fs.Bool("adaptive-window", true, "a batch waits only behind a running pass, -window bounding that wait, unless shared passes outlast -window; false waits out the full window every time")
	layout := fs.String("layout", "contiguous", "data layout across machines: round-robin, contiguous, skewed, shuffled-contiguous")
	window := fs.Duration("window", 5*time.Millisecond, "batching window (0 = one pass per query)")
	qps := fs.Float64("qps", 0, "per-tenant admission rate in queries/second (0 = unlimited)")
	burst := fs.Int("burst", 16, "per-tenant token bucket capacity")
	liveMode := fs.Bool("live", false, "mutable population: enable /v1/mutate + /v1/subscribe and warm standing-query answers")
	staleness := fs.Int("staleness", 0, "uncompensated deletions per stratum before reservoir repair (0 = default 64; needs -live)")
	subUsage(fs, "strata serve [flags]")
	if err := fs.Parse(args); err != nil {
		return err
	}

	strategy, err := dataset.ParsePartitioning(*layout)
	if err != nil {
		return err
	}
	var pop *dataset.Relation
	if *dataPath != "" {
		f, err := os.Open(*dataPath)
		if err != nil {
			return err
		}
		pop, err = dataset.ReadCSV(f, gen.AuthorSchema())
		f.Close()
		if err != nil {
			return err
		}
	} else {
		pop = gen.Population(*n, *seed)
	}

	cfg := serve.Config{
		Population:     pop,
		Slaves:         *slaves,
		Splits:         *numSplits,
		AdaptiveWindow: *adaptiveWindow,
		Layout:         strategy,
		PartitionSeed:  *seed,
		Window:         *window,
		QuotaQPS:       *qps,
		QuotaBurst:     *burst,
		Live:           *liveMode,
		StalenessBound: *staleness,
		NewCluster:     newCluster,
		OnMetrics:      recordMetrics,
	}
	if globalObs.tracer != nil {
		// -trace turns on end-to-end tracing: the daemon's request/batch/pass
		// spans and every pass's engine spans land in one span file, merged
		// back into request trees by "strata trace".
		cfg.Tracer = globalObs.tracer
	}
	srv, err := serve.NewServer(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}

	effSplits := *numSplits
	if effSplits <= 0 {
		effSplits = dataset.DefaultSplits(*slaves)
	}
	slog.Info("strata serve listening",
		"addr", ln.Addr().String(), "population", pop.Len(), "slaves", *slaves,
		"splits", effSplits, "adaptive_window", *adaptiveWindow,
		"layout", strategy.String(), "window", window.String(),
		"qps", *qps, "live", *liveMode)
	mode := ""
	if *liveMode {
		mode = ", live"
	}
	fmt.Printf("serving population of %d on http://%s (window %v%s)\n",
		pop.Len(), ln.Addr().String(), *window, mode)

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	stop()

	// Graceful drain: reject new queries, fire the collecting batch, let
	// in-flight handlers finish, then wait out the running passes.
	slog.Info("draining", "timeout", drainTimeout.String())
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		slog.Warn("http shutdown", "err", err)
	}
	srv.Drain()
	snap := srv.Stats()
	fmt.Printf("drained: %d queries, %d passes, %d coalesced, %d cache hits\n",
		snap.Queries, snap.Passes, snap.Coalesced, snap.CacheHits)
	return nil
}
