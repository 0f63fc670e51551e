// Command strata is the command-line front end of the stratified-sampling
// library: it generates synthetic author populations, answers SSD and MSSD
// queries with the paper's MapReduce algorithms, and regenerates every table
// and figure of the paper's evaluation.
//
// Usage:
//
//	strata [-log level] [-trace spans.jsonl] [-debug-addr addr]
//	       [-backend inproc|subprocess|tcp] [-workers n]
//	       <command> ...
//
//	strata generate    -n 10000 [-uniform] [-graph] [-seed 1] [-csv]
//	strata sample      -n 10000 -query "nop >= 100 : 5; nop < 100 : 10" [-slaves 4]
//	                   [-layout contiguous] [-naive] [-estimate ndcc]
//	strata audit       -n 10000 -query "nop >= 100 : 5; nop < 100 : 10" [-runs 30]
//	                   [-alpha 1e-4] [-estimate nop] [-cps [-group Small]] [-json]
//	strata mssd        -n 10000 -group Small -sample 100 [-runs 5] [-ip] [-explain]
//	                   [-waves 3]
//	strata query       -design design.json [-data pop.csv] [-ip] [-out answers.csv]
//	strata serve       [-addr localhost:8372] [-n 100000] [-data pop.csv] [-seed 1]
//	                   [-slaves 4] [-window 5ms] [-qps 0 -burst 16]
//	                   [-live [-staleness 64]]
//	strata loadgen     -addr host:port [-clients 32] [-requests 2000]
//	                   [-mutate 0.2] [-json report.json]
//	strata trace       [-top 5] spans.jsonl
//	strata experiments [-run all|table2|figure6|figure7|figure8|optimality|uniform|
//	                    scaling|scorecard] [-pop 20000] [-samples 100,1000]
//	                   [-runs 10] [-slaves 10] [-json]
//	strata worker      -connect host:port [-id name]
//
// The serve command keeps the population resident and coalesces SSD queries
// arriving within -window into a single MR-MQE pass; loadgen drives a running
// daemon with concurrent closed-loop clients and prints achieved QPS plus
// latency percentiles (DESIGN.md §12). Numbers compared across commits come from
// bench/ ("bash bench/run.sh"), not from loadgen.
//
// The -backend flag selects where engine tasks execute: in this process
// (inproc, the default) or on workers registered with its coordinator over
// TCP — -workers child processes it starts as "strata worker -connect"
// (subprocess), or -workers local goroutines plus any external "strata worker
// -connect" process that joins the address it logs (tcp). Job output is
// byte-for-byte identical across backends for a fixed seed.
//
// The global flags configure observability for every command: -log sets
// the structured-log level (at debug every job logs the end of its map phase,
// of its shuffle and of the job), -trace streams one JSON span per engine task
// to a file ("strata trace" renders it, -top naming the stragglers), and
// -debug-addr serves /metrics (Prometheus text) and /debug/pprof while the
// command runs, tracing nothing. "strata audit" prints its report to stdout.
package main

import (
	"fmt"
	"os"
)

func main() {
	args, err := parseGlobalFlags(os.Args[1:])
	if err != nil {
		os.Exit(2)
	}
	if len(args) < 1 {
		usage()
		os.Exit(2)
	}
	if err := globalObs.setup(); err != nil {
		fmt.Fprintf(os.Stderr, "strata: %v\n", err)
		os.Exit(1)
	}
	switch args[0] {
	case "generate":
		err = cmdGenerate(args[1:])
	case "sample":
		err = cmdSample(args[1:])
	case "mssd":
		err = cmdMSSD(args[1:])
	case "query":
		err = cmdQuery(args[1:])
	case "audit":
		err = cmdAudit(args[1:])
	case "trace":
		err = cmdTrace(args[1:])
	case "experiments":
		err = cmdExperiments(args[1:])
	case "serve":
		err = cmdServe(args[1:])
	case "loadgen":
		err = cmdLoadgen(args[1:])
	case "worker":
		err = cmdWorker(args[1:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "strata: unknown command %q\n\n", args[0])
		usage()
		os.Exit(2)
	}
	if cerr := globalObs.close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "strata: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `strata — stratified sampling over social networks using MapReduce

usage: strata [global flags] <command> [command flags]

commands:
  generate     generate a synthetic author population and print statistics
  sample       answer a single SSD query (MR-SQE) over a generated population
  audit        grade sampling quality: per-stratum fill, inclusion bias, costs
  mssd         answer a generated multi-survey query group (MR-MQE vs MR-CPS)
  query        run an MSSD design from a JSON file over a CSV or generated population
  serve        resident sampling daemon: coalesce concurrent SSD queries (MR-MQE)
  loadgen      drive a serve daemon with concurrent clients, report QPS + latency
  trace        summarize a span file written with -trace
  experiments  regenerate the paper's tables and figures
  worker       serve tasks for a coordinator (-connect host:port)

run "strata <command> -h" for command flags.`)
	fmt.Fprintln(os.Stderr)
	fmt.Fprintln(os.Stderr, globalFlagsHelp)
}
