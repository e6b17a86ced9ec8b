// Command faultcampaign runs an RTL fault-injection campaign on one
// workload and reports the probability of failure at the off-core
// boundary, broken down by outcome and functional unit.
//
// Usage:
//
//	faultcampaign -w ttsprk -target iu -models sa1 -nodes 256 -seed 1
//
// -models takes a comma-separated list of fault models:
// the permanent sa0, sa1 and open, the transient seu (single-event
// bit-flip) and set (glitch pulse; width via -pulse), or "all" for the
// paper's permanent trio. Transient injection instants are sampled
// deterministically per experiment from -seed over the window between
// the fixed injection instant and the end of the golden run.
//
// Every mode executes through the canonical path the campaign job server
// uses (jobs.Execute, or its sharded form). With -json the result is
// emitted in the service's deterministic encoding, so CLI output and
// `faultserverd` responses are byte-for-byte diffable for the same spec;
// without it the same outcome is rendered for people.
//
// -shards N executes the campaign as N deterministic experiment-range
// shards on in-process workers (one binary, no daemon); results are
// byte-identical to the unsharded run. -epsilon E enables adaptive early
// stopping: the campaign halts once the Wilson 95% half-width around the
// progressive Pf drops to E.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"repro/core"
	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/sparc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("faultcampaign: ")
	if err := run(os.Args[1:], os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the whole command: parse args, execute the campaign, write the
// result to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faultcampaign", flag.ExitOnError)
	var (
		name    = fs.String("w", "ttsprk", "workload name ("+strings.Join(core.WorkloadNames(), ", ")+")")
		iters   = fs.Int("iters", 2, "kernel iterations")
		dataset = fs.Int("dataset", 0, "input dataset selector")
		target  = fs.String("target", "iu", "injection target: iu or cmem")
		models  = fs.String("models", "all", "comma-separated fault models: sa0, sa1, open, seu, set or all (= sa0,sa1,open)")
		nodes   = fs.Int("nodes", 256, "node sample size (0 = exhaustive)")
		pulse   = fs.Uint64("pulse", 0, "set-pulse glitch width in cycles (0 = 1, at most 2^32; only with the set model)")
		seed    = fs.Int64("seed", 1, "sampling seed")
		workers = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		inject  = fs.Uint64("inject-at", 0, "injection instant (cycle)")
		injfrac = fs.Float64("inject-frac", 0, "injection instant as a fraction of the golden run (overrides -inject-at)")
		noCkpt  = fs.Bool("no-checkpoint", false, "run on the from-reset scalar reference engine (a fresh core per experiment) instead of forking the golden-run ladder")
		asJSON  = fs.Bool("json", false, "emit the campaign job service's canonical result JSON")
		shards  = fs.Int("shards", 0, "split the campaign into this many experiment-range shards on in-process workers (0/1 = unsharded)")
		epsilon = fs.Float64("epsilon", 0, "adaptive early stop once the Wilson 95% half-width around Pf reaches this (0 = run to completion)")
		engine  = fs.String("engine", "rtl", "campaign engine: rtl, iss, or hybrid (ISS-predicted, RTL-audited)")
		audit   = fs.Float64("rtl-audit", 0, "hybrid: RTL-audit fraction of ISS-trusted experiments (0 = default 0.1; 1.0 = pure RTL)")
		conf    = fs.Float64("confidence", 0, "hybrid: per-class R² threshold below which the class re-runs on RTL (0 = default 0.9)")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits here

	req := jobs.Request{
		Workload:         *name,
		Iterations:       *iters,
		Dataset:          *dataset,
		Target:           *target,
		Nodes:            *nodes,
		Seed:             *seed,
		InjectAtCycle:    *inject,
		InjectAtFraction: *injfrac,
		PulseCycles:      *pulse,
		NoCheckpoint:     *noCkpt,
		Epsilon:          *epsilon,
		Engine:           *engine,
		RTLAudit:         *audit,
		Confidence:       *conf,
	}
	if *asJSON {
		// The -iters flag defaults to 2 for the human-readable campaign,
		// but an HTTP submission that omits "iterations" means 0
		// (workload default). For byte-parity with the server, -json maps
		// an unset flag to 0 too; an explicit -iters still wins. The
		// human-readable renderings keep the CLI default so `-shards`,
		// `-epsilon` and `-engine` never change which campaign runs.
		req.Iterations = 0
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "iters" {
				req.Iterations = *iters
			}
		})
	}
	if *models != "all" {
		// Unknown and duplicate names are rejected by the request
		// normalization inside Execute, keeping one canonical model list.
		req.Models = splitModels(*models)
	}
	t0 := time.Now()
	var out *jobs.Outcome
	var err error
	if *shards > 1 {
		// Sharded in-process execution: byte-identical to unsharded
		// (sharding is scheduling, not content).
		out, err = jobs.ExecuteSharded(context.Background(), req, *shards, *workers, nil)
	} else {
		out, err = jobs.Execute(context.Background(), req, *workers, nil)
	}
	if err != nil {
		return err
	}
	if *asJSON {
		return jobs.EncodeOutcome(stdout, out)
	}
	renderOutcome(stdout, out, *shards, time.Since(t0))
	return nil
}

// splitModels turns a comma-separated -models value into the service's
// model-name list, trimming blanks so "sa1, seu" parses.
func splitModels(v string) []string {
	var out []string
	for _, name := range strings.Split(v, ",") {
		if name = strings.TrimSpace(name); name != "" {
			out = append(out, name)
		}
	}
	return out
}

// renderOutcome prints the human-readable summary of a campaign outcome.
func renderOutcome(w io.Writer, out *jobs.Outcome, shards int, elapsed time.Duration) {
	fmt.Fprintf(w, "workload:   %s, target %s, %d injections in %.1fs",
		out.Request.Workload, strings.ToUpper(out.Request.Target), out.Injections, elapsed.Seconds())
	if shards > 1 {
		fmt.Fprintf(w, " (%d shards)", shards)
	}
	fmt.Fprintln(w)
	// Which engine ran is the request's no_checkpoint, not the outcome's
	// frozen `checkpointed` field ("a warm-up prefix was skipped"): at
	// instant 0 the RTL ladder's first rung is the reset state and the
	// campaign forks all the same. The ISS engine keeps one checkpoint, at
	// the instant, and none at reset — there the field is the answer.
	forks := !out.Request.NoCheckpoint
	ticks := "cycles"
	if out.Request.Engine == "iss" {
		forks = out.Checkpointed
		ticks = "instructions (ISS timebase)"
	}
	engine := "from-reset re-simulation"
	if forks {
		engine = "golden-run forking (clean run simulated once, experiments fork from it)"
	}
	fmt.Fprintf(w, "engine:     %s, golden run %d %s\n", engine, out.GoldenCycles, ticks)
	if out.EarlyStopped {
		fmt.Fprintf(w, "adaptive:   converged after %d of %d experiments (epsilon %.3g, Wilson 95%%)\n",
			out.Injections, out.Requested, out.Request.Epsilon)
	}
	fmt.Fprintf(w, "Pf:         %s of faults propagated to failures (95%% CI %s..%s, Wilson)\n",
		report.Percent(out.Pf), report.Percent(out.PfLow), report.Percent(out.PfHigh))
	if out.MaxLatencyCycles >= 0 {
		fmt.Fprintf(w, "latency:    max detection latency %d cycles\n", out.MaxLatencyCycles)
	}
	if h := out.Hybrid; h != nil {
		fmt.Fprintf(w, "hybrid:     %d ISS-trusted + %d RTL (%d audited), %d audit disagreements (%s)\n",
			h.ISSExperiments, h.RTLExperiments, h.Audited, h.Disagreements, report.Percent(h.DisagreementRate))
		fmt.Fprintf(w, "corrected:  Pf interval %s..%s after audit-error widening\n",
			report.Percent(h.CorrectedPfLow), report.Percent(h.CorrectedPfHigh))
		tab := &report.Table{
			Title:   "hybrid routing by node class",
			Columns: []string{"unit", "exps", "rtl", "audited", "R2", "routed", "pred Pf", "audit Pf"},
		}
		for _, c := range h.Classes {
			routed := "trust"
			if c.Escalated {
				routed = "escalate"
			}
			tab.AddRow(c.Unit, c.Experiments, c.RTLExperiments, c.Audited,
				fmt.Sprintf("%.3f", c.R2), routed,
				report.Percent(c.PredictedPf), report.Percent(c.AuditedPf))
		}
		fmt.Fprint(w, tab.String())
	}
	// Outcome and unit names print in their enum order, whatever map
	// order the outcome carries them in.
	fmt.Fprintf(w, "outcomes:  ")
	for o := fault.OutcomeNoEffect; o <= fault.OutcomeHang; o++ {
		if n, ok := out.Outcomes[o.String()]; ok {
			fmt.Fprintf(w, " %v=%d", o, n)
		}
	}
	fmt.Fprintln(w)
	tab := &report.Table{Title: "per-unit Pf (Pmf of Equation 1)", Columns: []string{"unit", "Pf"}}
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		if pf, ok := out.PfByUnit[u.String()]; ok {
			tab.AddRow(u.String(), report.Percent(pf))
		}
	}
	fmt.Fprint(w, tab.String())
}
