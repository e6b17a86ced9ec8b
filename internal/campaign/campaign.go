// Package campaign orchestrates the reproduction of every table and figure
// of the paper's evaluation (Table 1, Figures 3-7, the simulation-time
// comparison and Equation (1)), its transient extensions and the ablations,
// as one list: Artifacts. Each entry returns a structured result whose
// Render method prints the same rows/series the paper reports.
package campaign

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/diversity"
	"repro/internal/fault"
	"repro/internal/iss"
	"repro/internal/jobs"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// ClockMHz is the assumed core clock for converting cycles to time
// (LEON3-class automotive silicon).
const ClockMHz = 100

// Options tunes campaign cost versus precision.
type Options struct {
	// Nodes is the per-target injection-node sample size (statistical
	// fault injection). 0 injects every node.
	Nodes int
	// Seed makes node sampling reproducible.
	Seed int64
	// Iterations overrides workload kernel iterations for RTL campaigns
	// (0 = 2, which §4.2 shows is sufficient for permanent faults).
	Iterations int
}

func (o Options) iters() int {
	if o.Iterations <= 0 {
		return 2
	}
	return o.Iterations
}

// injectFraction positions the fixed injection instant 5% into each run,
// so that open-line faults freeze live state rather than the all-zero
// reset values (the paper's "fixed injection instant").
const injectFraction = 0.05

// request is one campaign of the artifacts as the job service takes it:
// model at target over o's node sample of the named workload (Nodes 0 is
// every node), injected injectFraction into its run, transient instants
// scheduled from o.Seed and a set pulse pulse cycles wide. Every figure
// injects at the same fraction, so runners are shared across Figures 3-7,
// Eq1 and the ablations.
func (o Options) request(name string, cfg workloads.Config, target fault.Target, model rtl.FaultModel, pulse uint64) jobs.Request {
	return jobs.Request{
		Workload:         name,
		Iterations:       cfg.Iterations,
		Dataset:          cfg.Dataset,
		Target:           strings.ToLower(target.String()),
		Models:           []string{jobs.ModelName(model)},
		Nodes:            o.Nodes,
		Seed:             o.Seed,
		InjectAtFraction: injectFraction,
		PulseCycles:      pulse,
	}
}

// run executes o.request on the job service's one campaign path.
func (o Options) run(name string, cfg workloads.Config, target fault.Target, model rtl.FaultModel, pulse uint64) (*jobs.Outcome, error) {
	return jobs.Execute(context.Background(), o.request(name, cfg, target, model, pulse), 0, nil)
}

// The repository benchmark (bench/) calls RunnerFor and ISSRunnerFor, so
// they stay: each is one call into the job service's runner cache, where
// every artifact's campaign runs too.

// RunnerFor returns the memoized fault runner of a (workload, config,
// runner options) triple (jobs.RunnerFor).
func RunnerFor(name string, cfg workloads.Config, fopts fault.Options) (*fault.Runner, error) {
	return jobs.RunnerFor(context.Background(), name, cfg, fopts)
}

// ISSRunnerFor returns the memoized ISS runner of a (workload, config,
// options, timebase) tuple (jobs.ISSRunnerFor).
func ISSRunnerFor(name string, cfg workloads.Config, fopts fault.Options, cycleRef, fixedCycle uint64) (*fault.ISSRunner, error) {
	return jobs.ISSRunnerFor(context.Background(), name, cfg, fopts, cycleRef, fixedCycle)
}

// ---------------------------------------------------------------------------
// Table 1 — benchmark characterization.

// Table1Row characterizes one benchmark.
type Table1Row struct {
	Name      string
	Total     uint64
	IU        uint64
	Memory    uint64
	Diversity int
}

// Table1Result is the reproduced Table 1.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 measures the six paper benchmarks on the ISS.
func Table1() (*Table1Result, error) {
	out := &Table1Result{}
	for _, name := range workloads.Table1Names() {
		w, err := workloads.Get(name)
		if err != nil {
			return nil, err
		}
		prof, err := diversity.Measure(name, w.Program, 50_000_000)
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, Table1Row{
			Name:      name,
			Total:     prof.TotalInsts,
			IU:        prof.IUInsts,
			Memory:    prof.MemoryInsts,
			Diversity: prof.Diversity,
		})
	}
	return out, nil
}

// Render prints the table in the paper's layout.
func (t *Table1Result) Render() string {
	tab := &report.Table{
		Title:   "Table 1: Benchmarks characterization",
		Columns: []string{"Instructions", "puwmod", "canrdr", "ttsprk", "rspeed", "membench", "intbench"},
	}
	row := func(label string, f func(Table1Row) string) {
		cells := []interface{}{label}
		for _, r := range t.Rows {
			cells = append(cells, f(r))
		}
		tab.AddRow(cells...)
	}
	row("Total", func(r Table1Row) string { return fmt.Sprint(r.Total) })
	row("Integer Unit", func(r Table1Row) string { return fmt.Sprint(r.IU) })
	row("Memory", func(r Table1Row) string { return fmt.Sprint(r.Memory) })
	row("Diversity", func(r Table1Row) string { return fmt.Sprint(r.Diversity) })
	return tab.String()
}

// ---------------------------------------------------------------------------
// Figure 3 — input-data variation on fixed-code excerpts.

// Fig3Point is one excerpt bar.
type Fig3Point struct {
	Subset  string // "A" (8 types) or "B" (11 types)
	Dataset string // the EEMBC member whose data flavor it carries
	Pf      float64
}

// Fig3Result holds both subsets.
type Fig3Result struct {
	Points []Fig3Point
	// SpreadA/B are the max-min Pf differences within each subset
	// (the paper observes up to ~4 percentage points).
	SpreadA, SpreadB float64
}

// Figure3 injects stuck-at-1 faults at the IU while running the six
// benchmark excerpts (two code variants x three datasets).
func Figure3(o Options) (*Fig3Result, error) {
	labels := map[string][]string{
		"A": {"a2time", "ttsprk", "bitmap"},
		"B": {"rspeed", "tblook", "basefp"},
	}
	out := &Fig3Result{}
	for _, subset := range []string{"A", "B"} {
		var min, max float64
		for ds := 0; ds < 3; ds++ {
			res, err := o.run("excerpt"+subset, workloads.Config{Dataset: ds}, fault.TargetIU, rtl.StuckAt1, 0)
			if err != nil {
				return nil, err
			}
			pf := res.Pf
			out.Points = append(out.Points, Fig3Point{Subset: subset, Dataset: labels[subset][ds], Pf: pf})
			if ds == 0 || pf < min {
				min = pf
			}
			if ds == 0 || pf > max {
				max = pf
			}
		}
		if subset == "A" {
			out.SpreadA = max - min
		} else {
			out.SpreadB = max - min
		}
	}
	return out, nil
}

// Render prints the two bar groups.
func (f *Fig3Result) Render() string {
	var la, lb []string
	var va, vb []float64
	for _, p := range f.Points {
		if p.Subset == "A" {
			la = append(la, p.Dataset)
			va = append(va, p.Pf)
		} else {
			lb = append(lb, p.Dataset)
			vb = append(vb, p.Pf)
		}
	}
	return report.Bars("Figure 3(a): excerpts, 8 instruction types, stuck-at-1 @ IU", la, va, 100) +
		fmt.Sprintf("spread: %.1f pp\n\n", 100*f.SpreadA) +
		report.Bars("Figure 3(b): excerpts, 11 instruction types, stuck-at-1 @ IU", lb, vb, 100) +
		fmt.Sprintf("spread: %.1f pp\n", 100*f.SpreadB)
}

// ---------------------------------------------------------------------------
// Figure 4 — iteration count: Pf stability and propagation latency.

// Fig4Point is one iteration configuration of rspeed.
type Fig4Point struct {
	Iterations   int
	Pf           float64
	MaxLatencyUS float64
}

// Fig4Result holds the three configurations.
type Fig4Result struct {
	Points []Fig4Point
}

// Figure4 runs rspeed with 2, 4 and 10 iterations under stuck-at-1 at the
// IU nodes.
func Figure4(o Options) (*Fig4Result, error) {
	out := &Fig4Result{}
	for _, iters := range []int{2, 4, 10} {
		res, err := o.run("rspeed", workloads.Config{Iterations: iters}, fault.TargetIU, rtl.StuckAt1, 0)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, Fig4Point{
			Iterations:   iters,
			Pf:           res.Pf,
			MaxLatencyUS: float64(res.MaxLatencyCycles) / ClockMHz,
		})
	}
	return out, nil
}

// Render prints both panels.
func (f *Fig4Result) Render() string {
	tab := &report.Table{
		Title:   "Figure 4: rspeed iterations, stuck-at-1 @ IU",
		Columns: []string{"config", "Pf", "max propagation latency (us)"},
	}
	for _, p := range f.Points {
		tab.AddRow(fmt.Sprintf("rspeed%d", p.Iterations), report.Percent(p.Pf),
			fmt.Sprintf("%.1f", p.MaxLatencyUS))
	}
	return tab.String()
}

// ---------------------------------------------------------------------------
// Figures 5 and 6 — Pf per benchmark and fault model at IU / CMEM nodes.

// FigPfPoint is one bar of Figures 5/6.
type FigPfPoint struct {
	Benchmark string
	Model     rtl.FaultModel
	Pf        float64
}

// FigPfResult holds one target's sweep.
type FigPfResult struct {
	Target fault.Target
	Points []FigPfPoint
}

func figurePf(o Options, target fault.Target) (*FigPfResult, error) {
	out := &FigPfResult{Target: target}
	for _, name := range workloads.Table1Names() {
		for _, model := range rtl.FaultModels() {
			res, err := o.run(name, workloads.Config{Iterations: o.iters()}, target, model, 0)
			if err != nil {
				return nil, err
			}
			out.Points = append(out.Points, FigPfPoint{Benchmark: name, Model: model, Pf: res.Pf})
		}
	}
	return out, nil
}

// Figure5 sweeps the IU nodes.
func Figure5(o Options) (*FigPfResult, error) { return figurePf(o, fault.TargetIU) }

// Figure6 sweeps the CMEM nodes.
func Figure6(o Options) (*FigPfResult, error) { return figurePf(o, fault.TargetCMEM) }

// Render prints the grouped bars.
func (f *FigPfResult) Render() string {
	num := 5
	if f.Target == fault.TargetCMEM {
		num = 6
	}
	tab := &report.Table{
		Title:   fmt.Sprintf("Figure %d: propagated faults to failures at %v nodes", num, f.Target),
		Columns: []string{"benchmark", "stuck-at-1", "stuck-at-0", "open-line"},
	}
	byBench := map[string]map[rtl.FaultModel]float64{}
	var order []string
	for _, p := range f.Points {
		if byBench[p.Benchmark] == nil {
			byBench[p.Benchmark] = map[rtl.FaultModel]float64{}
			order = append(order, p.Benchmark)
		}
		byBench[p.Benchmark][p.Model] = p.Pf
	}
	for _, b := range order {
		m := byBench[b]
		tab.AddRow(b, report.Percent(m[rtl.StuckAt1]), report.Percent(m[rtl.StuckAt0]),
			report.Percent(m[rtl.OpenLine]))
	}
	return tab.String()
}

// ---------------------------------------------------------------------------
// Figure 7 — Pf versus instruction diversity with logarithmic fit.

// Fig7Point is one scatter point.
type Fig7Point struct {
	Label     string
	Diversity int
	Pf        float64
}

// Fig7Result is the scatter plus the fitted model.
type Fig7Result struct {
	Points        []Fig7Point
	A, Bderiv, R2 float64
	// unitDivs is each point's per-unit diversity, which ablation A3
	// predicts from.
	unitDivs [][sparc.NumUnits]int
}

// Figure7 correlates Pf (stuck-at-1 at IU) against instruction diversity
// over the six Table-1 benchmarks and the six Figure-3 excerpts, then fits
// y = a*ln(x) + b.
func Figure7(o Options) (*Fig7Result, error) {
	out := &Fig7Result{}
	add := func(label string, name string, cfg workloads.Config) error {
		w, err := workloads.Build(name, cfg)
		if err != nil {
			return err
		}
		prof, err := diversity.Measure(label, w.Program, 50_000_000)
		if err != nil {
			return err
		}
		res, err := o.run(name, cfg, fault.TargetIU, rtl.StuckAt1, 0)
		if err != nil {
			return err
		}
		out.Points = append(out.Points, Fig7Point{Label: label, Diversity: prof.Diversity, Pf: res.Pf})
		out.unitDivs = append(out.unitDivs, prof.UnitDiversity)
		return nil
	}
	for _, name := range workloads.Table1Names() {
		if err := add(name, name, workloads.Config{Iterations: o.iters()}); err != nil {
			return nil, err
		}
	}
	for ds := 0; ds < 3; ds++ {
		if err := add(fmt.Sprintf("excerptA/%d", ds), "excerptA", workloads.Config{Dataset: ds}); err != nil {
			return nil, err
		}
		if err := add(fmt.Sprintf("excerptB/%d", ds), "excerptB", workloads.Config{Dataset: ds}); err != nil {
			return nil, err
		}
	}
	xs := make([]float64, len(out.Points))
	ys := make([]float64, len(out.Points))
	for i, p := range out.Points {
		xs[i] = float64(p.Diversity)
		ys[i] = p.Pf
	}
	a, b, r2, err := stats.LogFit(xs, ys)
	if err != nil {
		return nil, err
	}
	out.A, out.Bderiv, out.R2 = a, b, r2
	return out, nil
}

// Render prints the scatter and the fit.
func (f *Fig7Result) Render() string {
	tab := &report.Table{
		Title:   "Figure 7: propagated faults vs instruction diversity (stuck-at-1 @ IU)",
		Columns: []string{"point", "diversity", "Pf"},
	}
	for _, p := range f.Points {
		tab.AddRow(p.Label, p.Diversity, report.Percent(p.Pf))
	}
	return tab.String() + fmt.Sprintf(
		"fit: y = %.4f*ln(x) %+.4f   R^2 = %.4f   (paper: y = 0.0838*ln(x) - 0.0191, R^2 = 0.9246)\n",
		f.A, f.Bderiv, f.R2)
}

// ---------------------------------------------------------------------------
// Simulation-time comparison (§4.2).

// SimTimeResult compares RTL and ISS simulation cost.
type SimTimeResult struct {
	RTLCyclesPerSec float64
	ISSInstPerSec   float64
	// RTLRunSec and ISSRunSec are the measured wall-clock times of one
	// full benchmark execution on each simulator.
	RTLRunSec, ISSRunSec float64
	// Speedup is the per-run ISS/RTL wall-clock ratio.
	Speedup float64
	// CampaignRuns is the size of a full exhaustive campaign (all IU and
	// CMEM nodes x 3 models x 6 benchmarks).
	CampaignRuns int
	// RTLCampaignHours and ISSCampaignHours extrapolate the full campaign
	// cost on one worker.
	RTLCampaignHours, ISSCampaignHours float64
	// CheckpointSpeedup is the measured speedup of the checkpointed
	// campaign engine over from-reset re-simulation on an identical
	// experiment set at the injection instant the repo's campaigns
	// actually use (injectFraction into the run): the warm-up prefix is
	// simulated once and every experiment forks from the frozen
	// snapshot. The speedup grows with the injection instant — the
	// BenchmarkCampaign pair measures ~2x at mid-run.
	CheckpointSpeedup float64
	// CheckpointedRTLCampaignHours extrapolates the full RTL campaign
	// cost with golden-run forking enabled, using that same speedup.
	CheckpointedRTLCampaignHours float64
}

// simTimeReps is how many timed runs of each simulator SimTime takes the
// minimum over.
const simTimeReps = 5

// SimTime measures both simulators on the puwmod benchmark and
// extrapolates the full-campaign cost the paper reports (25,478 h of RTL
// versus <300 h of ISS computing time).
func SimTime(o Options) (*SimTimeResult, error) {
	w, err := workloads.Build("puwmod", workloads.Config{Iterations: o.iters()})
	if err != nil {
		return nil, err
	}

	// SimTime's deliverable IS wall-clock: it reproduces the paper's
	// simulation-time table, and no measured duration feeds a campaign
	// result or content address. Each simulator is timed as the minimum
	// over a few repetitions, the two alternating, after one warm-up run
	// each: a single cold sample of a run this short (~0.1 ms on the ISS)
	// measures the host's other tenants, not the simulators.
	fresh := func() *mem.Bus {
		m := mem.NewMemory()
		m.LoadImage(w.Program.Origin, w.Program.Image)
		return mem.NewBus(m)
	}
	timed := func(name string, run func(uint64) iss.Status, budget uint64) (float64, error) {
		t0 := time.Now() //lint:allow det measured quantity of the SimTime table
		if st := run(budget); st != iss.StatusExited {
			return 0, fmt.Errorf("campaign: %s timing run: %v", name, st)
		}
		return time.Since(t0).Seconds(), nil //lint:allow det measured quantity of the SimTime table
	}
	var cpu *iss.CPU
	var core *leon3.Core
	issSec, rtlSec := math.Inf(1), math.Inf(1)
	for rep := 0; rep <= simTimeReps; rep++ {
		cpu = iss.New(fresh(), w.Program.Entry)
		i, err := timed("ISS", cpu.Run, 100_000_000)
		if err != nil {
			return nil, err
		}
		core = leon3.New(fresh(), w.Program.Entry)
		r, err := timed("RTL", core.Run, 400_000_000)
		if err != nil {
			return nil, err
		}
		if rep > 0 { // rep 0 is the warm-up
			issSec, rtlSec = min(issSec, i), min(rtlSec, r)
		}
	}

	nodes := core.K.Nodes("iu.")
	cmem := core.K.Nodes("cmem.")
	runs := (len(nodes) + len(cmem)) * 3 * len(workloads.Table1Names())

	// Golden-run reuse: time the same small experiment set with the
	// checkpointed engine forking from the golden snapshot versus
	// re-simulating every warm-up prefix from reset.
	ckSec, resetSec, err := checkpointSpeedup(o, w)
	if err != nil {
		return nil, err
	}

	out := &SimTimeResult{
		RTLCyclesPerSec:  float64(core.Cycles()) / rtlSec,
		ISSInstPerSec:    float64(cpu.Icount) / issSec,
		RTLRunSec:        rtlSec,
		ISSRunSec:        issSec,
		Speedup:          rtlSec / issSec,
		CampaignRuns:     runs,
		RTLCampaignHours: rtlSec * float64(runs) / 3600,
		ISSCampaignHours: issSec * float64(runs) / 3600,
	}
	out.CheckpointSpeedup = resetSec / ckSec
	out.CheckpointedRTLCampaignHours = out.RTLCampaignHours / out.CheckpointSpeedup
	return out, nil
}

// checkpointSpeedup measures one experiment set both ways: forked from the
// golden-run checkpoint and re-simulated from reset. It injects at the
// same injectFraction the repo's campaigns use, so dividing the
// extrapolated campaign hours by this speedup stays honest.
func checkpointSpeedup(o Options, w *workloads.Workload) (ckSec, resetSec float64, err error) {
	sample := 12
	if o.Nodes > 0 && o.Nodes < sample {
		sample = o.Nodes
	}
	for _, noCkpt := range []bool{false, true} {
		// Deliberately unmemoized: this measures golden-run + campaign
		// cost both ways, so a cache hit would time an empty build and
		// overstate the speedup.
		r, err := fault.NewRunner(w.Program, fault.Options{ //lint:allow seam audited one-shot timing build
			InjectAtFraction: injectFraction,
			NoCheckpoint:     noCkpt,
		})
		if err != nil {
			return 0, 0, fmt.Errorf("campaign: checkpoint timing: %w", err)
		}
		exps := fault.Expand(fault.SampleNodes(fault.Nodes(fault.TargetIU), sample, o.Seed), rtl.StuckAt1)
		r.PrepareCheckpoint() // capture outside the timed region
		t0 := time.Now()      //lint:allow det measured quantity of the checkpoint-speedup row
		if err := r.CampaignSink(context.Background(), exps, 0, func(int, *fault.Result) {}, nil); err != nil {
			return 0, 0, fmt.Errorf("campaign: checkpoint timing: %w", err)
		}
		if noCkpt {
			resetSec = time.Since(t0).Seconds() //lint:allow det measured quantity of the checkpoint-speedup row
		} else {
			ckSec = time.Since(t0).Seconds() //lint:allow det measured quantity of the checkpoint-speedup row
		}
	}
	return ckSec, resetSec, nil
}

// Render prints the comparison next to the paper's numbers.
func (s *SimTimeResult) Render() string {
	tab := &report.Table{
		Title:   "Simulation time: RTL fault injection vs ISS (one benchmark run)",
		Columns: []string{"metric", "RTL", "ISS"},
	}
	tab.AddRow("wall-clock per run (s)", fmt.Sprintf("%.4f", s.RTLRunSec), fmt.Sprintf("%.4f", s.ISSRunSec))
	tab.AddRow("throughput", fmt.Sprintf("%.0f cycles/s", s.RTLCyclesPerSec), fmt.Sprintf("%.0f inst/s", s.ISSInstPerSec))
	tab.AddRow("full campaign (1 worker, h)", fmt.Sprintf("%.1f", s.RTLCampaignHours), fmt.Sprintf("%.1f", s.ISSCampaignHours))
	tab.AddRow("checkpointed campaign (h)", fmt.Sprintf("%.1f", s.CheckpointedRTLCampaignHours), "-")
	return tab.String() + fmt.Sprintf(
		"per-run RTL/ISS slowdown: %.1fx over %d campaign runs (paper: 25,478 h RTL on clusters vs <300 h ISS on one workstation)\n"+
			"golden-run forking at the campaign injection instant: %.2fx speedup (warm-up prefix simulated once, experiments forked copy-on-write; ~2x at mid-run injection)\n",
		s.Speedup, s.CampaignRuns, s.CheckpointSpeedup)
}
