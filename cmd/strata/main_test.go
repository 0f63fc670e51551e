package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/cps"
	"repro/internal/dataset"
	"repro/internal/gen"
	"repro/internal/mapreduce"
	"repro/internal/predicate"
	"repro/internal/query"
	"repro/internal/stratified"
	"repro/internal/worker"
)

func TestCmdGenerate(t *testing.T) {
	if err := cmdGenerate([]string{"-n", "500"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate([]string{"-n", "300", "-uniform"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdGenerate([]string{"-n", "300", "-graph"}); err != nil {
		t.Fatal(err)
	}
}

// TestGenerateCSVReadsBack: "strata generate -csv" writes nothing but the
// CSV to stdout (its summary goes to stderr), so what it prints reads back
// through dataset.ReadCSV — as "strata serve -data" reads it — as the
// population it generated.
func TestGenerateCSVReadsBack(t *testing.T) {
	const n, seed = 300, 5
	cmd := exec.Command(os.Args[0], "generate", "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed), "-csv")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("generate -csv: %v\n%s", err, stderr.String())
	}
	got, err := dataset.ReadCSV(strings.NewReader(string(out)), gen.AuthorSchema())
	if err != nil {
		t.Fatalf("reading generate -csv output: %v", err)
	}
	want := gen.Population(n, seed)
	if got.Len() != want.Len() {
		t.Fatalf("read back %d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Tuple(i), want.Tuple(i); g.ID != w.ID || g.Name != w.Name || !slices.Equal(g.Attrs, w.Attrs) {
			t.Fatalf("row %d: read back %+v, generated %+v", i, g, w)
		}
	}
	if !strings.Contains(stderr.String(), fmt.Sprintf("population: %d individuals", n)) {
		t.Fatalf("no summary on stderr:\n%s", stderr.String())
	}
}

func TestCmdSample(t *testing.T) {
	err := cmdSample([]string{"-n", "2000", "-query", "nop >= 30 : 3 ; nop < 30 : 5", "-print=false"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdSample([]string{"-n", "100", "-query", "broken ::"}); err == nil {
		t.Fatal("want parse error")
	}
	if err := cmdSample([]string{"-n", "100", "-query", "nop < 10 : 1 ; nop < 20 : 1"}); err == nil {
		t.Fatal("want overlap validation error")
	}
	// Nine boxes on four attributes, no bound shared: 19⁴ cells, past the cap.
	var wide []string
	for k := 0; k < 9; k++ {
		wide = append(wide, fmt.Sprintf("nop >= %d and nop <= %d and cc >= %d and cc <= %d and ndcc >= %d and ndcc <= %d and myp >= %d and myp <= %d : 1",
			10+70*k, 40+70*k, 10+100*k, 60+100*k, 10+200*k, 110+200*k, 2+15*k, 10+15*k))
	}
	err = cmdSample([]string{"-n", "100", "-query", strings.Join(wide, " ; ")})
	if err == nil || !strings.Contains(err.Error(), "130321 cells") {
		t.Fatalf("past the cell cap: error %v, want the cell count", err)
	}
}

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	out := make(chan string)
	go func() {
		data, _ := io.ReadAll(r)
		out <- string(data)
	}()
	err = fn()
	os.Stdout = stdout
	w.Close()
	if err != nil {
		t.Fatal(err)
	}
	return <-out
}

// TestCmdSampleGolden: `strata sample`, sampling inside the map tasks
// (Figure 2) and forwarding every match (-naive, Figure 1), prints the bytes
// the binary printed before the split-level stage became the engine's only
// map interface — the answers and the metrics line with its simulated time.
// The golden files were captured from that binary; regenerate them only with
// a change that means to move draws or the cost model. sample_estimate.golden
// adds -estimate and was captured from the binary whose estimate re-scanned
// the population for its strata's sizes: the answer's own sizes must print
// the same estimate.
func TestCmdSampleGolden(t *testing.T) {
	args := []string{"-n", "20000", "-seed", "7", "-slaves", "8", "-splits", "16", "-layout", "skewed",
		"-query", "nop >= 100 : 5 ; nop < 100 and fy < 2000 : 10 ; nop < 100 and fy >= 2000 : 4"}
	for golden, extra := range map[string][]string{
		"sample_fused.golden":    nil,
		"sample_naive.golden":    {"-naive"},
		"sample_estimate.golden": {"-estimate", "nop"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		got := captureStdout(t, func() error { return cmdSample(append(args[:len(args):len(args)], extra...)) })
		if got != string(want) {
			t.Errorf("%s: output moved\n--- got\n%s--- want\n%s", golden, got, want)
		}
	}
}

// TestCmdAudit: the audit report goes to stdout — the scorecard with every
// section asked for, then the verdict.
func TestCmdAudit(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdAudit([]string{"-n", "2000", "-query", "nop >= 30 : 3 ; nop < 30 : 5",
			"-runs", "5", "-slaves", "2", "-estimate", "nop"})
	})
	for _, want := range []string{"quality scorecard", "bias audit: 5 runs", "estimator health", "audit PASSED"} {
		if !strings.Contains(out, want) {
			t.Fatalf("audit stdout lacks %q:\n%s", want, out)
		}
	}
	if err := cmdAudit([]string{"-n", "100", "-query", "broken ::"}); err == nil {
		t.Fatal("want parse error")
	}
	if err := cmdAudit([]string{"-n", "500", "-cps", "-group", "Nope", "-runs", "2", "-slaves", "2"}); err == nil {
		t.Fatal("want unknown-group error")
	}
}

// TestCmdAuditCPS: under -json the report on stdout carries the CPS section,
// whose realized cost is at least the LP bound.
func TestCmdAuditCPS(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdAudit([]string{"-n", "2500", "-query", "nop >= 30 : 3 ; nop < 30 : 5",
			"-runs", "3", "-slaves", "2", "-cps", "-group", "Small", "-sample", "24", "-json"})
	})
	var rep audit.Report
	if err := json.NewDecoder(strings.NewReader(out)).Decode(&rep); err != nil {
		t.Fatalf("audit -json stdout does not start with a report: %v\n%s", err, out)
	}
	if rep.Fill == nil || rep.Bias == nil || rep.CPS == nil {
		t.Fatalf("audit -json report incomplete: %+v", rep)
	}
	if rep.Bias.Runs != 3 {
		t.Fatalf("bias runs = %d, want 3", rep.Bias.Runs)
	}
	if rep.CPS.CostRatio() < 1-1e-9 {
		t.Fatalf("realized cost below LP bound: %v", rep.CPS.CostRatio())
	}
}

func TestCmdMSSD(t *testing.T) {
	err := cmdMSSD([]string{"-n", "3000", "-group", "Small", "-sample", "32", "-runs", "1", "-slaves", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdMSSD([]string{"-group", "Nope"}); err == nil {
		t.Fatal("want unknown-group error")
	}
}

// TestCmdMSSDWavesHonourIPAndExplain: a campaign wave solves the program
// -ip asks for and -explain prints its plan. At this seed the integer program
// and the LP relaxation realise different costs, so the wave's cost line must
// be the one of a direct integer-mode cps.Run at the wave's seed.
func TestCmdMSSDWavesHonourIPAndExplain(t *testing.T) {
	const n, seed, sample = 5000, 3, 32
	got := captureStdout(t, func() error {
		return cmdMSSD([]string{"-group", "Large", "-n", fmt.Sprint(n), "-seed", fmt.Sprint(seed),
			"-sample", fmt.Sprint(sample), "-slaves", "2", "-waves", "1", "-ip", "-explain"})
	})

	pop := gen.Population(n, seed)
	rng := rand.New(rand.NewSource(seed + 99))
	queries, err := gen.QueryGroup(gen.Large, pop, sample, rng)
	if err != nil {
		t.Fatal(err)
	}
	costs := gen.DefaultPenaltyTable(gen.Large.N, rng)
	m := query.NewMSSD(costs, queries...)
	splits, err := dataset.Partition(pop, 20, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	waveLine := func(integer bool) string {
		res, err := cps.Run(mapreduce.NewCluster(2), m, pop.Schema(), splits, cps.Options{
			Seed: seed, Solve: cps.SolveOptions{Integer: integer},
		})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprintf("wave 1: cost $%.0f, %d unique individuals (campaign total %d)\n",
			res.Answers.Cost(costs), res.Answers.UniqueIndividuals(), res.Answers.UniqueIndividuals())
	}
	ip, relaxed := waveLine(true), waveLine(false)
	if ip == relaxed {
		t.Fatalf("IP and LP realise the same wave (%q): the check cannot tell them apart", ip)
	}
	if !strings.Contains(got, ip) {
		t.Errorf("-waves 1 -ip printed\n%s\nwant the integer-mode line %q", got, ip)
	}
	if !strings.Contains(got, "sharing plan of the last wave:\n  {") {
		t.Errorf("-waves 1 -explain printed no plan line:\n%s", got)
	}
}

// lpTimeLine matches the wall-clock part of mssd's pipeline-time line.
var lpTimeLine = regexp.MustCompile(`LP time: .*`)

// TestCmdMSSDGolden: `strata mssd` prints the bytes of the binary that still
// carried a joint formulation, a warm-start store and a parallelism knob beside
// the per-σ solve — campaign waves, repeated runs with the sharing plan, and
// the same under the integer program. The LP time is wall clock and masked.
func TestCmdMSSDGolden(t *testing.T) {
	args := []string{"-n", "3000", "-group", "Small", "-sample", "32", "-slaves", "2"}
	for golden, extra := range map[string][]string{
		"mssd_waves.golden":      {"-waves", "3"},
		"mssd_explain.golden":    {"-runs", "2", "-explain"},
		"mssd_explain_ip.golden": {"-runs", "2", "-explain", "-ip"},
	} {
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		got := captureStdout(t, func() error { return cmdMSSD(append(args[:len(args):len(args)], extra...)) })
		got = lpTimeLine.ReplaceAllString(got, "LP time: (masked)")
		if got != string(want) {
			t.Errorf("%s: output moved\n--- got\n%s--- want\n%s", golden, got, want)
		}
	}
}

// experimentClock matches a JSON cell whose value `strata experiments`
// reads from a wall clock, keeping the key.
var experimentClock = regexp.MustCompile(`^(\s*"(?:Formulate|Solve|Simulated)": )\d+`)

// maskExperimentClocks blanks the wall-clock cells of `strata experiments
// -json`: Figure 8's Formulate and Solve, and the Simulated time of Figure 7's
// CPS cells, which adds the LP's formulate and solve times to the virtual
// clock. Every other cell is the same at any GOMAXPROCS and on every run.
func maskExperimentClocks(out string) string {
	lines := strings.SplitAfter(out, "\n")
	experiment, algorithm := "", ""
	for i, line := range lines {
		trimmed := strings.TrimSpace(line)
		switch {
		case strings.HasPrefix(trimmed, `"experiment": `):
			experiment = strings.Trim(strings.TrimPrefix(trimmed, `"experiment": `), `",`)
		case strings.HasPrefix(trimmed, `"Algorithm": `):
			algorithm = strings.Trim(strings.TrimPrefix(trimmed, `"Algorithm": `), `",`)
		}
		mask := experiment == "figure8" && (strings.HasPrefix(trimmed, `"Formulate": `) || strings.HasPrefix(trimmed, `"Solve": `)) ||
			experiment == "figure7" && algorithm == "CPS" && strings.HasPrefix(trimmed, `"Simulated": `)
		if mask {
			lines[i] = experimentClock.ReplaceAllString(line, "${1}0")
		}
	}
	return strings.Join(lines, "")
}

// TestCmdExperimentsGolden: the reproduction's tables and figures, at a size
// that runs in seconds, print the bytes they printed before the daemon's and
// the engine's single-value settings became constants. Only the wall-clock
// cells are masked (maskExperimentClocks).
func TestCmdExperimentsGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "experiments_small.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := captureStdout(t, func() error {
		return cmdExperiments([]string{"-run", "all", "-pop", "2000", "-samples", "20", "-runs", "1", "-slaves", "2", "-json"})
	})
	if got = maskExperimentClocks(got); got != string(want) {
		t.Errorf("experiments_small.golden: output moved\n--- got\n%s--- want\n%s", got, want)
	}
}

func TestCmdQueryFromFiles(t *testing.T) {
	dir := t.TempDir()

	// Write a design file.
	m := query.NewMSSD(
		query.PenaltyCosts{Interview: 4},
		query.NewSSD("act",
			query.Stratum{Cond: predicate.MustParse("ayp >= 3"), Freq: 4},
			query.Stratum{Cond: predicate.MustParse("ayp < 3"), Freq: 6},
		),
	)
	design, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	designPath := filepath.Join(dir, "design.json")
	if err := os.WriteFile(designPath, design, 0o644); err != nil {
		t.Fatal(err)
	}

	// Write a population CSV.
	pop := gen.Population(800, 9)
	csvPath := filepath.Join(dir, "pop.csv")
	f, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := pop.WriteCSV(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if err := cmdQuery([]string{"-design", designPath, "-data", csvPath, "-slaves", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-design", designPath, "-n", "500", "-slaves", "2", "-ip"}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{}); err == nil {
		t.Fatal("want missing-design error")
	}
	if err := cmdQuery([]string{"-design", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatal("want file error")
	}
}

func TestCmdExperimentsQuick(t *testing.T) {
	err := cmdExperiments([]string{"-run", "table2", "-pop", "3000", "-samples", "24", "-runs", "1", "-slaves", "2"})
	if err != nil {
		t.Fatal(err)
	}
	if err := cmdExperiments([]string{"-run", "nope"}); err == nil {
		t.Fatal("want unknown-experiment error")
	}
	if err := cmdExperiments([]string{"-samples", "abc"}); err == nil {
		t.Fatal("want bad-samples error")
	}
}

// TestCmdExperimentsRenderers: the Figure 8, optimality and uniform
// experiments render through cmdExperiments as their table — the title, the
// column header and one row per query group.
func TestCmdExperimentsRenderers(t *testing.T) {
	for _, tc := range []struct {
		run, title, header string
	}{
		{"figure8", "== Figure 8: LP formulate+solve times ==", "Group   Sample  |[[Q]]*|  vars   cons  formulate  solve   pipeline(sim)"},
		{"optimality", "== Section 6.2.2: optimality analysis (C_LP <= C_IP <= C_A) ==", "Group   C_LP  C_IP  C_A   (C_A-C_IP)/C_A  residual"},
		{"uniform", "== Section 6.2.1: value-distribution robustness ==", "Group   ratio (Table-1 data)  ratio (uniform data)"},
	} {
		out := captureStdout(t, func() error {
			return cmdExperiments([]string{"-run", tc.run, "-pop", "2000", "-runs", "1", "-samples", "20"})
		})
		lines := strings.Split(out, "\n")
		if len(lines) < 3 || lines[0] != tc.title || lines[1] != tc.header || strings.Trim(lines[2], "- ") != "" {
			t.Errorf("-run %s: want title %q and header %q, got:\n%s", tc.run, tc.title, tc.header, out)
			continue
		}
		for _, group := range []string{"Small", "Medium", "Large"} {
			if n := len(regexp.MustCompile(`(?m)^`+group+` +\S`).FindAllString(out, -1)); n != 1 {
				t.Errorf("-run %s: %d %s rows, want 1:\n%s", tc.run, n, group, out)
			}
		}
	}
}

func TestParseSSDSpec(t *testing.T) {
	q, err := parseSSD("Q", "a < 5 : 2 ; a >= 5 : 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Strata) != 2 || q.Strata[0].Freq != 2 || q.Strata[1].Freq != 3 {
		t.Fatalf("parsed %+v", q)
	}
	for _, bad := range []string{"", "a < 5", "a < 5 : x", "(( : 3"} {
		if _, err := parseSSD("Q", bad); err == nil {
			t.Errorf("parseSSD(%q) should fail", bad)
		}
	}
}

func TestCmdQueryCSVExport(t *testing.T) {
	dir := t.TempDir()
	m := query.NewMSSD(
		query.PenaltyCosts{Interview: 4},
		query.NewSSD("act",
			query.Stratum{Cond: predicate.MustParse("ayp >= 3"), Freq: 3},
			query.Stratum{Cond: predicate.MustParse("ayp < 3"), Freq: 4},
		),
	)
	design, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	designPath := filepath.Join(dir, "d.json")
	if err := os.WriteFile(designPath, design, 0o644); err != nil {
		t.Fatal(err)
	}
	outPath := filepath.Join(dir, "answers.csv")
	if err := cmdQuery([]string{"-design", designPath, "-n", "500", "-slaves", "2", "-out", outPath}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 8 { // header + 7 individuals
		t.Fatalf("%d lines in export, want 8", len(lines))
	}
	if !strings.HasPrefix(lines[0], "survey,stratum,id,name,nop") {
		t.Fatalf("bad header %q", lines[0])
	}
}

// TestWorkersFlagRefused: a global flag value that cannot work — a worker
// count no pool can have, an unknown -log level or -backend — is a usage
// error: the binary names it and exits 2, as for an unknown flag, before any
// worker starts. So is a flag that was deleted (the global debug shorthand
// and progress ticker, serve's cache size, drain budget, pass cap and batch
// cap, loadgen's self-hosted daemon, template count and mutation batch size,
// generate's stats switch): it is refused at flag parsing. Only refused
// values are tried, so
// no worker, daemon or pass ever starts.
func TestWorkersFlagRefused(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-backend", "subprocess", "-workers", "-3", "sample", "-n", "10"}, "-workers -3"},
		{[]string{"-backend", "subprocess", "-workers", "0", "sample", "-n", "10"}, "-workers 0"},
		{[]string{"-backend", "tcp", "-workers", "-1", "sample", "-n", "10"}, "-workers -1"},
		{[]string{"-log", "loud", "sample", "-n", "10"}, `unknown -log level "loud"`},
		{[]string{"-backend", "carrier-pigeon", "sample", "-n", "10"}, `unknown -backend "carrier-pigeon"`},
		{[]string{"-v", "sample", "-n", "10"}, "flag provided but not defined: -v"},
		{[]string{"serve", "-cache", "1"}, "flag provided but not defined: -cache"},
		{[]string{"loadgen", "-selfhost"}, "flag provided but not defined: -selfhost"},
		{[]string{"generate", "-stats"}, "flag provided but not defined: -stats"},
		{[]string{"-progress", "sample", "-n", "10"}, "flag provided but not defined: -progress"},
		{[]string{"serve", "-drain-timeout", "1s"}, "flag provided but not defined: -drain-timeout"},
		{[]string{"serve", "-max-passes", "4"}, "flag provided but not defined: -max-passes"},
		{[]string{"serve", "-max-batch", "64"}, "flag provided but not defined: -max-batch"},
		{[]string{"loadgen", "-queries", "8"}, "flag provided but not defined: -queries"},
		{[]string{"loadgen", "-mutate-batch", "8"}, "flag provided but not defined: -mutate-batch"},
	} {
		out, err := exec.Command(os.Args[0], tc.args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("%v: err %v, want exit status 2\n%s", tc.args, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%v: output does not name %q:\n%s", tc.args, tc.want, out)
		}
		for _, ran := range []string{"worker pool started", "stratum 1", "serving population", "individuals, schema"} {
			if strings.Contains(string(out), ran) {
				t.Errorf("%v: the command ran:\n%s", tc.args, out)
			}
		}
	}
}

// TestDebugAddrLeavesEngineUntraced: -debug-addr serves /metrics and
// /debug/pprof and nothing else, and installs no tracer, so a profile taken
// through it profiles the program that runs without one.
func TestDebugAddrLeavesEngineUntraced(t *testing.T) {
	o := &globalObs
	logLevel, tracePath, debugAddr, backend, workers := o.logLevel, o.tracePath, o.debugAddr, o.backend, o.workers
	logger := slog.Default()
	t.Cleanup(func() {
		o.logLevel, o.tracePath, o.debugAddr, o.backend, o.workers = logLevel, tracePath, debugAddr, backend, workers
		o.debugLn = nil
		slog.SetDefault(logger)
	})
	if _, err := parseGlobalFlags([]string{"-debug-addr", "localhost:0", "sample"}); err != nil {
		t.Fatal(err)
	}
	if err := o.setup(); err != nil {
		t.Fatal(err)
	}
	defer o.close()

	if tr := newCluster(2).Tracer; tr != nil {
		t.Errorf("-debug-addr installed a %T as the engine's tracer", tr)
	}
	base := "http://" + o.debugLn.Addr().String()
	for path, want := range map[string]int{
		"/metrics": http.StatusOK, "/debug/pprof/": http.StatusOK,
		"/progress": http.StatusNotFound, "/quality": http.StatusNotFound, "/debug/vars": http.StatusNotFound,
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Errorf("GET %s: status %d, want %d", path, resp.StatusCode, want)
		}
	}
}

// TestTraceCritNamesThePath: "strata trace -crit" rebuilds the trace tree of
// a distributed run and descends its critical path from the job span to the
// longest map attempt and the worker that ran it, beside the job's map,
// shuffle and reduce rows; the path ends at that attempt, since under the
// frozen clock its queue, decode and exec children take no time. Two runs
// on a one-worker pool read back byte-identical.
func TestTraceCritNamesThePath(t *testing.T) {
	pop := gen.Population(2000, 1)
	splits, err := dataset.Partition(pop, 4, dataset.Contiguous, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := parseSSD("Q", "nop >= 100 : 5 ; nop < 100 : 10")
	if err != nil {
		t.Fatal(err)
	}
	exec, err := worker.NewTCPExecutor(worker.TCPConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	exec.SpawnLocal(1)
	if err := exec.AwaitWorkers(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	trace := func(name string) string {
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		tr := mapreduce.NewJSONLTracer(f)
		c := mapreduce.NewCluster(2)
		c.Executor, c.Tracer, c.Clock = exec, tr, mapreduce.FrozenClock(time.Unix(0, 0))
		c.TraceContext = &mapreduce.TraceContext{Trace: "t-crit", Run: "r1"}
		if _, _, err := stratified.RunSQE(c, q, pop.Schema(), splits, stratified.Options{Seed: 1}); err != nil {
			t.Fatal(err)
		}
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		return captureStdout(t, func() error { return cmdTrace([]string{"-top", "0", "-crit", "2", path}) })
	}
	out := trace("first.jsonl")
	table, crit, ok := strings.Cut(out, "traces: 1 ")
	if !ok {
		t.Fatalf("no critical paths:\n%s", out)
	}
	for _, row := range []string{"map", "shuffle-send", "shuffle-recv", "reduce"} {
		if !regexp.MustCompile(`(?m)^ +` + row + ` +[1-9]`).MatchString(table) {
			t.Errorf("the job's table has no %q row:\n%s", row, table)
		}
	}
	if !regexp.MustCompile(`\n  job "mr-sqe:Q" \[r1\] [^\n]*\n    map task \d \[r1\] @tcp-\d+ [^\n]*\n+$`).MatchString(crit) {
		t.Errorf("the critical path does not descend from the job to a map attempt on its worker and end there:\n%s", crit)
	}
	if again := trace("second.jsonl"); again != out {
		t.Errorf("two frozen-clock runs read back differently:\n--- first ---\n%s\n--- second ---\n%s", out, again)
	}
}

// TestTraceTopNamesTheStraggler: the slowest attempts of a job are read from
// its span file with "strata trace -top". One split holds 2400 of the 2630
// rows, so its map task's simulated duration is many times that of the
// 10-row tasks around it, and it heads the list.
func TestTraceTopNamesTheStraggler(t *testing.T) {
	pop := gen.Population(2630, 1)
	rows := pop.Tuples()
	splits := []dataset.Split{rows[:2400]}
	for rest := rows[2400:]; len(rest) > 0; rest = rest[10:] {
		splits = append(splits, rest[:10])
	}
	q, err := parseSSD("Q", "nop >= 100 : 5 ; nop < 100 : 10")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	tr := mapreduce.NewJSONLTracer(f)
	c := mapreduce.NewCluster(4)
	c.Tracer = tr
	if _, _, err := stratified.RunSQE(c, q, pop.Schema(), splits, stratified.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := captureStdout(t, func() error { return cmdTrace([]string{"-top", "2", "-crit", "0", path}) })
	_, list, ok := strings.Cut(out, "slowest task attempts:\n")
	if !ok {
		t.Fatalf("no slowest-attempts list:\n%s", out)
	}
	if !strings.HasPrefix(list, "  map    task 0 attempt 1: sim ") || !strings.Contains(list, " 2400 recs, ok\n") {
		t.Errorf("the oversized split's map task does not head the list:\n%s", list)
	}
}
