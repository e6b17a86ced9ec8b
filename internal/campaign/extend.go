package campaign

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/fault"
	"repro/internal/jobs"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TransientPoint is the Pf of single-event upsets injected at one instant.
type TransientPoint struct {
	AtCycle uint64
	Pf      float64
}

// TransientResult is the exploratory extension experiment: the paper
// restricts itself to permanent faults precisely because transient-fault
// outcomes depend on the injection instant; this experiment demonstrates
// that temporal dependence on our RTL model (the paper's declared future
// work).
type TransientResult struct {
	Benchmark string
	Points    []TransientPoint
	// PermanentPf is the stuck-at-1 Pf on the same node sample, for
	// contrast.
	PermanentPf float64
}

// ExtTransient sweeps bit-flip injection instants across the run of one
// benchmark and contrasts the resulting Pf with the permanent stuck-at-1
// Pf of the same nodes.
func ExtTransient(o Options, benchmark string) (*TransientResult, error) {
	cfg := workloads.Config{Iterations: o.iters()}
	perm, err := o.run(benchmark, cfg, fault.TargetIU, rtl.StuckAt1, 0)
	if err != nil {
		return nil, err
	}
	// A request schedules each transient's instant from the seed; this
	// sweep pins every instant of a campaign at one cycle, so it drives
	// the engine directly (DESIGN.md §1), on the runner the request ran on.
	r, err := jobs.RunnerFor(context.Background(), benchmark, cfg, fault.Options{InjectAtFraction: injectFraction})
	if err != nil {
		return nil, err
	}
	nodes := fault.Nodes(fault.TargetIU)
	if o.Nodes > 0 {
		nodes = fault.SampleNodes(nodes, o.Nodes, o.Seed)
	}
	out := &TransientResult{Benchmark: benchmark, PermanentPf: perm.Pf}
	// Five instants spread across the golden run.
	for _, frac := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		at := uint64(frac * float64(r.GoldenCycles))
		exps := fault.Expand(nodes, rtl.BitFlip)
		for i := range exps {
			exps[i].AtCycle = at
		}
		var failures atomic.Int64
		if err := r.CampaignSink(context.Background(), exps, 0, func(_ int, res *fault.Result) {
			if res.Outcome.IsFailure() {
				failures.Add(1)
			}
		}, nil); err != nil {
			return nil, fmt.Errorf("campaign: transient sweep: %w", err)
		}
		out.Points = append(out.Points, TransientPoint{AtCycle: at, Pf: float64(failures.Load()) / float64(len(exps))})
	}
	return out, nil
}

// ModelPf is one fault model's Pf column with its Wilson interval.
type ModelPf struct {
	Model         rtl.FaultModel
	Transient     bool
	Pf            float64
	PfLow, PfHigh float64
}

// TransientBreakdownResult is the figure-style per-model breakdown: the
// Pf of every fault model — the paper's three permanent models and the
// two transient extensions — on one benchmark's shared IU node sample,
// plus the per-class aggregates.
type TransientBreakdownResult struct {
	Benchmark   string
	PulseCycles uint64
	Rows        []ModelPf
	// PermanentPf and TransientPf aggregate Pf over each model class
	// (all class experiments pooled).
	PermanentPf, TransientPf float64
}

// TransientBreakdown runs one campaign per fault model over a shared
// node sample and contrasts the permanent and transient classes.
// Transient injection instants are scheduled deterministically from the
// sampling seed, so the breakdown is reproducible. pulse is the SET
// glitch width in cycles (0 = 1).
func TransientBreakdown(o Options, benchmark string, pulse uint64) (*TransientBreakdownResult, error) {
	out := &TransientBreakdownResult{Benchmark: benchmark, PulseCycles: max(pulse, 1)}
	classDone := map[bool]int{}
	classFail := map[bool]int{}
	for _, model := range rtl.AllFaultModels() {
		res, err := o.run(benchmark, workloads.Config{Iterations: o.iters()}, fault.TargetIU, model, pulse)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, ModelPf{
			Model:     model,
			Transient: model.Transient(),
			Pf:        res.Pf,
			PfLow:     res.PfLow,
			PfHigh:    res.PfHigh,
		})
		classDone[model.Transient()] += res.Injections
		classFail[model.Transient()] += res.Failures
	}
	if n := classDone[false]; n > 0 {
		out.PermanentPf = float64(classFail[false]) / float64(n)
	}
	if n := classDone[true]; n > 0 {
		out.TransientPf = float64(classFail[true]) / float64(n)
	}
	return out, nil
}

// Render prints the per-model columns with their class contrast.
func (t *TransientBreakdownResult) Render() string {
	tab := &report.Table{
		Title: fmt.Sprintf("Extension: per-model Pf on %s IU nodes (SET pulse %d cycles)",
			t.Benchmark, t.PulseCycles),
		Columns: []string{"model", "class", "Pf", "95% CI (Wilson)"},
	}
	for _, row := range t.Rows {
		class := "permanent"
		if row.Transient {
			class = "transient"
		}
		tab.AddRow(row.Model.String(), class, report.Percent(row.Pf),
			fmt.Sprintf("%s..%s", report.Percent(row.PfLow), report.Percent(row.PfHigh)))
	}
	return tab.String() + fmt.Sprintf("class aggregate: permanent %s, transient %s\n",
		report.Percent(t.PermanentPf), report.Percent(t.TransientPf))
}

// Render prints the sweep.
func (t *TransientResult) Render() string {
	tab := &report.Table{
		Title:   fmt.Sprintf("Extension: transient bit-flips on %s IU nodes (paper future work)", t.Benchmark),
		Columns: []string{"injection cycle", "Pf"},
	}
	for _, p := range t.Points {
		tab.AddRow(fmt.Sprint(p.AtCycle), report.Percent(p.Pf))
	}
	return tab.String() +
		fmt.Sprintf("permanent stuck-at-1 Pf on the same nodes: %s\n", report.Percent(t.PermanentPf))
}
