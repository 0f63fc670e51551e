// Command bench is the repository's benchmark: one harness, six named
// workloads, end-to-end metrics from untraced runs and a per-layer ladder from
// traced runs. See README.md in this directory.
//
//	bench [run] -workload NAME -seed N -seconds S -trace 0|1 [-out DIR]
//	bench all [-seed N] [-seconds S] [-runs K] [-out DIR]
//	bench compare A.json B.json
//	bench manifest [-write PATH]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

func main() {
	// The program's own INFO chatter (worker pool joins and drains) would
	// bury the metric listing.
	slog.SetDefault(slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})))
	args := os.Args[1:]
	cmd := "run"
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	var err error
	switch cmd {
	case "run":
		err = cmdRun(args)
	case "all":
		err = cmdAll(args)
	case "compare":
		err = cmdCompare(args)
	case "manifest":
		err = cmdManifest(args)
	default:
		err = fmt.Errorf("unknown command %q (want run, all, compare or manifest)", cmd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
}

// cmdRun runs one workload once, lists what it measured and ends its standard
// output with the driver's one-line JSON result.
func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the bench's own generators: population, templates, mutation stream, arrivals")
	seconds := fs.Float64("seconds", runSeconds, "how long to measure")
	trace := fs.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, ok := workloadByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("want -seconds > 0 and -trace 0 or 1")
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	res, err := runWorkload(w, *seed, *seconds, *trace == 1, *out)
	if err != nil {
		return err
	}
	if err := res.write(*out); err != nil {
		return err
	}
	res.print()
	line, err := json.Marshal(res.contractLine())
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// cmdAll runs every workload untraced and then traced, each run in a fresh
// child process so that peak RSS and GC state belong to one workload, and
// writes the set of results.
func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the bench's own generators")
	seconds := fs.Float64("seconds", allSeconds, "how long each run measures")
	runs := fs.Int("runs", 1, "runs per workload and mode; compare needs several to see the spread")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	set := &resultSet{
		Environment: readEnvironment(), Seed: *seed, Seconds: *seconds, Runs: *runs,
		Results: map[string]*workloadResult{},
	}
	for _, w := range workloads {
		wr := &workloadResult{Ops: map[string]int{}, Metrics: map[string][]float64{}}
		set.Results[w.Name] = wr
		for run := 0; run < *runs; run++ {
			for trace := 0; trace <= 1; trace++ {
				if quietMachine() {
					wr.Noisy = true
				}
				res, err := runChild(self, w.Name, *seed, *seconds, trace, *out)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				wr.add(res)
			}
		}
		if wr.Noisy {
			fmt.Printf("%s: NOISY — the machine was busy before a run started\n", w.Name)
		}
		printAttributionSum(w, wr)
	}
	buf, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(*out, "results.json")
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("results written to %s\n", path)
	for name, wr := range set.Results {
		if wr.Failed > 0 {
			return fmt.Errorf("%s: %d of %d ops failed", name, wr.Failed, wr.Attempted)
		}
	}
	return nil
}

// runChild runs one workload in a child process, forwards its metric listing
// and reads back the result file it wrote.
func runChild(self, name string, seed int64, seconds float64, trace int, out string) (*runResult, error) {
	cmd := exec.Command(self, "run", "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-out", out)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		os.Stdout.Write(stdout.Bytes())
		return nil, err
	}
	// Everything but the driver's JSON line, which is the last one.
	listing := bytes.TrimRight(stdout.Bytes(), "\n")
	if i := bytes.LastIndexByte(listing, '\n'); i >= 0 {
		os.Stdout.Write(listing[:i+1])
	}
	data, err := os.ReadFile(filepath.Join(out, fmt.Sprintf("%s.trace%d.json", name, trace)))
	if err != nil {
		return nil, err
	}
	var res runResult
	if err := json.Unmarshal(data, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// printAttributionSum checks the ladder against the end-to-end number: the
// daemon's own window+queue+pass+wire attribution plus the front-end probe
// (and, where arrivals find the machine idle, the HTTP hop) should account for
// the median latency the clients saw over the same traced leg. (The untraced
// latency_p50_ms is the quietest block's and reads a few percent under it.)
func printAttributionSum(w workload, wr *workloadResult) {
	if w.Kind == kindCPS {
		return
	}
	sum := median(wr.Metrics["serve.frontend_us"])/1e3 + median(wr.Metrics["client.http_overhead_ms"])
	for _, part := range []string{"window", "queue", "pass", "wire"} {
		sum += median(wr.Metrics["serve."+part+"_p50_ms"])
	}
	p50 := median(wr.Metrics["client.latency_p50_ms"])
	fmt.Printf("%s: window+queue+pass+wire+frontend(+http) = %.3f ms, client.latency_p50_ms = %.3f ms (%+.1f%%), untraced latency_p50_ms = %.3f ms\n",
		w.Name, sum, p50, 100*ratio(sum-p50, p50), median(wr.Metrics["latency_p50_ms"]))
}

// cmdCompare compares two result sets row by row and exits non-zero when any
// row got worse.
func cmdCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: bench compare BASELINE.json CHANGE.json")
	}
	a, err := readResultSet(args[0])
	if err != nil {
		return err
	}
	b, err := readResultSet(args[1])
	if err != nil {
		return err
	}
	if compareSets(a, b) {
		return fmt.Errorf("%s is worse than %s on at least one row", args[1], args[0])
	}
	return nil
}

// cmdManifest prints BENCHMARK.json as the metric and workload tables define
// it, or writes it to a path.
func cmdManifest(args []string) error {
	fs := flag.NewFlagSet("manifest", flag.ContinueOnError)
	write := fs.String("write", "", "write to this path instead of printing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	buf, err := marshalManifest()
	if err != nil {
		return err
	}
	if *write == "" {
		_, err = os.Stdout.Write(buf)
		return err
	}
	return os.WriteFile(*write, buf, 0o644)
}
