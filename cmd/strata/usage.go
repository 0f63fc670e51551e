package main

import (
	"flag"
	"fmt"
	"os"
)

// globalFlagsHelp is the one authoritative rendering of the global flag set;
// the top-level usage and every subcommand's -h print it, so the list cannot
// drift per command.
const globalFlagsHelp = `global flags (before the command):
  -v, -log <level>          debug logging / explicit level (debug, info, warn, error)
  -trace <spans.jsonl>      write one JSON span per engine task ("strata trace" renders it)
  -progress                 live per-phase task progress line on stderr
  -debug-addr <addr>        serve /metrics /progress /quality /debug/pprof /debug/vars
  -backend <b>              task execution: inproc (default), subprocess or tcp
  -workers <n>              worker count for -backend subprocess or tcp`

// subUsage installs a usage function on a subcommand's flag set that prints
// the synopsis, the command's own flags, and the shared global-flag help.
func subUsage(fs *flag.FlagSet, synopsis string) {
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s\n\nflags:\n", synopsis)
		fs.PrintDefaults()
		fmt.Fprintf(os.Stderr, "\n%s\n", globalFlagsHelp)
	}
}
