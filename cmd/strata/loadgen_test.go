package main

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/serve"
)

// TestMain lets the test binary stand in for the strata binary: re-executed
// with a command as its first argument (not a -test.* flag) it runs main, so a
// test can observe exit codes that flag.ExitOnError produces.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-test.") {
		main()
		return
	}
	os.Exit(m.Run())
}

// TestDriveLoadMixed runs the one load driver against a live in-process
// daemon with a fifth of the requests mutation batches: every request is
// answered, queries and mutations are counted apart, and the report carries
// the QPS timeline and the daemon's latency attribution.
func TestDriveLoadMixed(t *testing.T) {
	const popN, requests = 2000, 200
	pop := gen.Population(popN, 1)
	srv, err := serve.NewServer(serve.Config{
		Population: pop, Slaves: 2, PartitionSeed: 1,
		Window: time.Millisecond, AdaptiveWindow: true, Live: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	defer srv.BeginDrain()

	run, err := driveLoad(ts.URL, loadSpec{
		clients: 4, requests: requests, seed: 1,
		mutate: 0.2, popN: popN, schema: pop.Schema(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.Failed != 0 || run.OK+run.Mutations != requests {
		t.Fatalf("ok %d + mutations %d, failed %d; want %d answered", run.OK, run.Mutations, run.Failed, requests)
	}
	if want := requests / 5; run.Mutations != want {
		t.Fatalf("mutations = %d, want %d (-mutate 0.2)", run.Mutations, want)
	}
	if len(run.QPSTimeline) != 10 {
		t.Fatalf("QPS timeline has %d slices, want 10", len(run.QPSTimeline))
	}
	if run.statsErr != nil || len(run.Stats.Attribution) == 0 {
		t.Fatalf("no latency attribution in the report (stats error %v)", run.statsErr)
	}
	if run.Stats.Live == nil || run.Stats.Live.Seq == 0 {
		t.Fatalf("daemon saw no mutations: %+v", run.Stats.Live)
	}
	if !(run.P50MS > 0 && run.P50MS <= run.P90MS && run.P90MS <= run.P99MS && run.P99MS <= run.MaxMS) {
		t.Fatalf("percentiles out of order: p50 %v p90 %v p99 %v max %v", run.P50MS, run.P90MS, run.P99MS, run.MaxMS)
	}
	if !(run.MutP50MS > 0 && run.MutP50MS <= run.MutP99MS) {
		t.Fatalf("mutation percentiles: p50 %v p99 %v", run.MutP50MS, run.MutP99MS)
	}
}

// TestLoadgenReportKeys: "strata loadgen -addr" against a running live
// daemon of 2 000 members, given no population size, reads it from /healthz:
// its mutation batches update members that exist, so none is rejected, and
// -json writes one run under "batched" and nothing of the retired A/B arms
// or of a self-hosted daemon's window.
func TestLoadgenReportKeys(t *testing.T) {
	const popN = 2000
	srv, err := serve.NewServer(serve.Config{
		Population: gen.Population(popN, 1), Slaves: 2, PartitionSeed: 1,
		Window: time.Millisecond, AdaptiveWindow: true, Live: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Drain()
	defer srv.BeginDrain()

	path := filepath.Join(t.TempDir(), "report.json")
	captureStdout(t, func() error {
		return cmdLoadgen([]string{"-addr", strings.TrimPrefix(ts.URL, "http://"), "-clients", "4",
			"-requests", "100", "-mutate", "0.2", "-json", path})
	})
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report map[string]json.RawMessage
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	want := "batched clients distinct_queries mutate_ratio population requests"
	if got := strings.Join(keys, " "); got != want {
		t.Fatalf("report keys %q, want %q", got, want)
	}
	if got := string(report["population"]); got != "2000" {
		t.Fatalf("report population %s, want the daemon's 2000", got)
	}
	var run loadgenRun
	if err := json.Unmarshal(report["batched"], &run); err != nil {
		t.Fatal(err)
	}
	if run.OK != 80 || run.Mutations != 20 || run.Failed != 0 || run.Stats.Passes == 0 {
		t.Fatalf("batched run: ok %d mutations %d failed %d passes %d", run.OK, run.Mutations, run.Failed, run.Stats.Passes)
	}
	if live := srv.Stats().Live; live == nil || live.Rejected != 0 || live.Updates == 0 {
		t.Fatalf("daemon live stats %+v, want updates and 0 rejected mutations", live)
	}
}

// TestLoadgenRetiredFlags: the A/B arms and the self-hosted daemon are gone,
// so their flags are unknown and exit 2 like any other, before any request.
func TestLoadgenRetiredFlags(t *testing.T) {
	for _, f := range []string{"-compare", "-freshness", "-rounds=4", "-n=2000",
		"-slaves=2", "-window=5ms", "-max-batch=8", "-staleness=4"} {
		out, err := exec.Command(os.Args[0], "loadgen", "-addr", "127.0.0.1:1", f).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Fatalf("loadgen %s: err %v, want exit status 2\n%s", f, err, out)
		}
		name := strings.SplitN(f, "=", 2)[0]
		if !strings.Contains(string(out), "flag provided but not defined: "+name) {
			t.Fatalf("loadgen %s: no unknown-flag message in\n%s", f, out)
		}
	}
}

func TestQuantile(t *testing.T) {
	if quantile(nil, 0.5) != 0 {
		t.Fatal("quantile of nothing must be 0")
	}
	d := []time.Duration{4, 1, 3, 2, 5}
	slices.Sort(d)
	for q, want := range map[float64]time.Duration{0: 1, 0.5: 3, 0.9: 4, 0.99: 4, 1: 5} {
		if got := quantile(d, q); got != want {
			t.Errorf("quantile(%v) = %d, want %d", q, got, want)
		}
	}
}
