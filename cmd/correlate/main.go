// Command correlate regenerates the paper's evaluation — Table 1, Figures
// 3-7, the simulation-time comparison and Equation (1) — with the transient
// extensions and the ablations A2-A4, printing each in a paper-style layout
// on stdout and its wall-clock time on stderr. Every artifact comes from one
// list, core.Artifacts; internal/campaign/testdata/artifacts.golden pins
// the untimed ones at -nodes 48.
//
// Usage:
//
//	correlate -exp all [-nodes 256] [-seed 1] [-iters 2]
//	correlate -exp fig7
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"repro/core"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("correlate: ")
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command: parse args, render the chosen artifacts to
// stdout, and time each on stderr.
func run(args []string, stdout, stderr io.Writer) error {
	arts := core.Artifacts()
	var names []string
	for _, a := range arts {
		names = append(names, a.Name)
	}
	valid := strings.Join(names, ", ") + " or all"
	fs := flag.NewFlagSet("correlate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp   = fs.String("exp", "all", "artifact: "+valid)
		nodes = fs.Int("nodes", 256, "injection node sample size per campaign (0 = every node)")
		seed  = fs.Int64("seed", 1, "sampling seed")
		iters = fs.Int("iters", 2, "workload iterations for RTL campaigns (0 = 2)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *exp != "all" && !slices.Contains(names, *exp) {
		return fmt.Errorf("unknown -exp %q: want %s", *exp, valid)
	}
	if *nodes < 0 {
		return fmt.Errorf("-nodes %d: want 0 (every node) or a sample size", *nodes)
	}
	if *iters < 0 {
		return fmt.Errorf("-iters %d: want 0 (the default 2) or an iteration count", *iters)
	}

	o := core.ExperimentOptions{Nodes: *nodes, Seed: *seed, Iterations: *iters}
	for _, a := range arts {
		if *exp != "all" && *exp != a.Name {
			continue
		}
		t0 := time.Now()
		r, err := a.Run(o)
		if err != nil {
			return fmt.Errorf("%s: %w", a.Name, err)
		}
		fmt.Fprintln(stdout, r.Render())
		fmt.Fprintf(stderr, "[%s took %.1fs]\n", a.Name, time.Since(t0).Seconds())
	}
	return nil
}
