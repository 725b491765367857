// Command bench measures SkyNet end to end — raw alert on the wire to
// ranked incident at a client — against a real skynetd subprocess, and
// layer by layer with a traced in-process replay of the same bytes.
// See README.md in this directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "run one workload (default: all four, each run in a process of its own)")
	flag.Int64Var(&o.seed, "seed", 1, "drives everything random in the load: pool order, probe devices, late share")
	flag.IntVar(&o.seconds, "seconds", defaultSeconds, "how long each run sends for")
	flag.IntVar(&trace, "trace", 0, "1: also replay the run's bytes in process through each layer and report the per-layer metrics")
	flag.IntVar(&o.repeat, "repeat", 1, "runs per workload; medians, quartiles and spreads are reported")
	flag.StringVar(&o.out, "out", "", "append the runs to this results file (default bench/results/<date>.json when there are several)")
	flag.StringVar(&o.parent, "parent", "", "checkout of the parent commit: every repeat then runs both skynetds, alternating which goes first, and the comparison is printed")
	flag.StringVar(&o.daemonRoot, "daemon-root", "", "checkout to build skynetd from (default: this one)")
	budget := flag.String("budget", "", "print the per-workload budget tables of a results file as markdown and exit")
	flag.Parse()
	o.trace = trace != 0
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *budget != "" {
		os.Exit(budgetMain(*budget))
	}
	if err := run(ctx, o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
