// Command skynet-exp regenerates the paper's evaluation tables and
// figures on the synthetic substrate.
//
// Usage:
//
//	skynet-exp -exp all
//	skynet-exp -exp fig9 -scenarios 48
//	skynet-exp -list
//
// Every experiment prints a table plus the paper's reported shape so the
// two can be compared side by side; EXPERIMENTS.md archives a full run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"skynet/internal/experiments"
	"skynet/internal/topology"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment to run (see -list) or 'all'")
		list      = flag.Bool("list", false, "list available experiments and exit")
		scenarios = flag.Int("scenarios", 24, "scenario corpus size")
		window    = flag.Duration("window", 12*time.Minute, "observation window per scenario")
		seed      = flag.Int64("seed", 1, "random seed")
		scale     = flag.String("scale", "small", "topology scale: small or production")
		workers   = flag.Int("workers", 0,
			"pipeline worker fan-out (0 = all cores, 1 = serial; results are identical)")
	)
	flag.Parse()

	if *list {
		fmt.Println("available experiments:")
		for _, n := range experiments.Names() {
			fmt.Println("  " + n)
		}
		return
	}

	opts := experiments.DefaultOptions()
	opts.Scenarios = *scenarios
	opts.Window = *window
	opts.Seed = *seed
	opts.Engine.Workers = *workers
	switch strings.ToLower(*scale) {
	case "small":
		opts.Topology = topology.SmallConfig()
	case "production":
		opts.Topology = topology.ProductionConfig()
	default:
		fmt.Fprintf(os.Stderr, "skynet-exp: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	start := time.Now()
	if *exp == "all" {
		results, err := experiments.All(opts)
		for _, r := range results {
			r.Print(os.Stdout)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-exp: %v\n", err)
			os.Exit(1)
		}
	} else {
		r, err := experiments.ByName(*exp, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "skynet-exp: %v\n", err)
			os.Exit(1)
		}
		r.Print(os.Stdout)
	}
	fmt.Printf("completed in %v (scenarios=%d, scale=%s, seed=%d)\n",
		time.Since(start).Round(time.Millisecond), opts.Scenarios, *scale, *seed)
}
