package main

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

// environment is recorded with every result, so that two result files can be
// told apart by more than their numbers.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"kernel"`
	Clients    int    `json:"clients"`
}

func readEnvironment() environment {
	env := environment{
		Commit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel: "unknown", Clients: 2,
	}
	// A checkout that is not a git repository has no commit to name.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		env.Commit = strings.TrimSpace(string(out))
	}
	if out, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(out))
	}
	return env
}

// quietMachine is the noise guard: it samples how busy the machine is while
// the benchmark itself is idle. A busy machine gets one more chance after ten
// seconds; after that the workload runs anyway and is flagged noisy.
func quietMachine() (noisy bool) {
	limit := 0.25 * float64(runtime.NumCPU())
	if busyCores(250*time.Millisecond) <= limit {
		return false
	}
	fmt.Fprintf(os.Stderr, "bench: machine is busy (more than %.2f cores in use), waiting 10s\n", limit)
	time.Sleep(10 * time.Second)
	return busyCores(250*time.Millisecond) > limit
}
