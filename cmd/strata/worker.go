package main

import (
	"flag"
	"fmt"

	"repro/internal/worker"
)

// cmdWorker turns this process into a task worker: it dials a coordinator,
// registers, and serves map and reduce attempts through stratified.Inproc —
// the job builder the coordinator uses — until the coordinator drains it.
// "-backend subprocess" starts its children this way; "-backend tcp" logs
// the address any further "strata worker -connect host:port" can join.
func cmdWorker(args []string) error {
	fs := flag.NewFlagSet("worker", flag.ExitOnError)
	connect := fs.String("connect", "", "dial a coordinator at this `addr` and register")
	id := fs.String("id", "", "worker `id` reported in results and trace spans (default from STRATA_WORKER_ID or the pid)")
	subUsage(fs, `strata worker -connect host:port [-id name]`)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *connect == "" {
		return fmt.Errorf("worker: need -connect addr")
	}
	return worker.ServeTCP(*connect, worker.ServeOptions{ID: *id})
}
