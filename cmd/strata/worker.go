package main

import (
	"flag"
	"fmt"

	"repro/internal/worker"
)

// cmdWorker turns this process into a task worker: the execution half of
// "-backend subprocess" (which spawns "strata worker -stdio" children
// itself) and "-backend tcp" (join a running coordinator from anywhere with
// "strata worker -connect host:port"). The worker serves map, combine and
// reduce attempts through the same job registry the coordinator uses, until
// the coordinator drains it.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	stdio := fs.Bool("stdio", false, "serve a coordinator over stdin/stdout (spawned by -backend subprocess)")
	connect := fs.String("connect", "", "dial a tcp coordinator at this `addr` and register")
	id := fs.String("id", "", "worker `id` reported in results and trace spans (default from STRATA_WORKER_ID or the pid)")
	subUsage(fs, `strata worker -stdio | -connect host:port [-id name]`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := worker.ServeOptions{ID: *id}
	switch {
	case *stdio && *connect != "":
		return fmt.Errorf("worker: -stdio and -connect are mutually exclusive")
	case *stdio:
		worker.ServeStdio(opts) // exits the process
		return nil
	case *connect != "":
		return worker.ServeTCP(*connect, opts)
	default:
		return fmt.Errorf("worker: need -stdio or -connect addr")
	}
}
