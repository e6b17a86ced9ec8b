package campaign

import (
	"fmt"

	"repro/internal/diversity"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Renderer is a reproduced artifact: Render prints it in the paper's
// layout.
type Renderer interface{ Render() string }

// Artifact is one entry of the reproduction: a table or figure of the
// paper's evaluation, an extension, or one of the ablations that keep the
// reproduction's modelling choices falsifiable (DESIGN.md §5).
type Artifact struct {
	// Name is the artifact's `correlate -exp` name.
	Name string
	// Timed marks a rendering that carries wall-clock measurements, which no
	// two runs share; testdata/artifacts.golden holds every other one.
	Timed bool
	// Run produces the artifact.
	Run func(Options) (Renderer, error)
}

// Artifacts lists every artifact of the reproduction, in the order
// correlate renders them.
func Artifacts() []Artifact {
	return []Artifact{
		{Name: "table1", Run: func(Options) (Renderer, error) { return Table1() }},
		{Name: "fig3", Run: func(o Options) (Renderer, error) { return Figure3(o) }},
		{Name: "fig4", Run: func(o Options) (Renderer, error) { return Figure4(o) }},
		{Name: "fig5", Run: func(o Options) (Renderer, error) { return Figure5(o) }},
		{Name: "fig6", Run: func(o Options) (Renderer, error) { return Figure6(o) }},
		{Name: "fig7", Run: func(o Options) (Renderer, error) { return Figure7(o) }},
		{Name: "simtime", Timed: true, Run: func(o Options) (Renderer, error) { return SimTime(o) }},
		{Name: "eq1", Run: func(o Options) (Renderer, error) { return Eq1(o) }},
		{Name: "ext-transient", Run: func(o Options) (Renderer, error) { return ExtTransient(o, "rspeed") }},
		{Name: "breakdown", Run: func(o Options) (Renderer, error) { return TransientBreakdown(o, "rspeed", 2) }},
		{Name: "a2", Run: func(o Options) (Renderer, error) { return sampleSize(o) }},
		{Name: "a3", Run: func(o Options) (Renderer, error) { return weightedEq1(o) }},
		{Name: "a4", Run: func(o Options) (Renderer, error) { return openLine(o) }},
	}
}

// ---------------------------------------------------------------------------
// A2 — sample size.

// sampleSizeResult is ablation A2: ttsprk's stuck-at-1 Pf at the IU as the
// statistical-injection sample grows, each with its Wilson interval.
type sampleSizeResult []sampleSizeRow

type sampleSizeRow struct {
	Nodes             int
	Pf, PfLow, PfHigh float64
}

func sampleSize(o Options) (sampleSizeResult, error) {
	r, err := runnerFor("ttsprk", workloads.Config{Iterations: o.iters()})
	if err != nil {
		return nil, err
	}
	var out sampleSizeResult
	for _, n := range []int{64, 128, 256, 512} {
		o.Nodes = n
		pf, results := pfOf(o, r, fault.TargetIU, rtl.StuckAt1, 0)
		lo, hi := fault.PfInterval(results, stats.Z95)
		out = append(out, sampleSizeRow{Nodes: n, Pf: pf, PfLow: lo, PfHigh: hi})
	}
	return out, nil
}

// Render prints Pf and its interval per sample size.
func (s sampleSizeResult) Render() string {
	tab := &report.Table{
		Title:   "Ablation A2: sample size, stuck-at-1 @ IU on ttsprk",
		Columns: []string{"nodes", "Pf", "95% CI (Wilson)"},
	}
	for _, row := range s {
		tab.AddRow(row.Nodes, report.Percent(row.Pf),
			fmt.Sprintf("%s..%s", report.Percent(row.PfLow), report.Percent(row.PfHigh)))
	}
	return tab.String()
}

// ---------------------------------------------------------------------------
// A3 — weighted Equation (1).

// weightedEq1Result is ablation A3 over Figure 7's points: the R² of
// Figure 7's plain global log fit, and that of Equation (1) — Figure 7's
// fitted (a, b) applied to each unit's diversity, the units area-weighted —
// as a linear predictor of the measured Pf.
type weightedEq1Result struct {
	GlobalR2, WeightedR2 float64
}

func weightedEq1(o Options) (*weightedEq1Result, error) {
	fig, err := Figure7(o)
	if err != nil {
		return nil, err
	}
	weights := AreaWeights(fault.TargetIU)
	var pred, meas []float64
	for i, p := range fig.Points {
		pmf := diversity.PredictPmf(fig.unitDivs[i], fig.A, fig.Bderiv)
		pred = append(pred, diversity.CombinePf(weights, pmf))
		meas = append(meas, p.Pf)
	}
	_, _, r2, err := stats.LinFit(pred, meas)
	if err != nil {
		return nil, err
	}
	return &weightedEq1Result{GlobalR2: fig.R2, WeightedR2: r2}, nil
}

// Render prints both R².
func (w *weightedEq1Result) Render() string {
	tab := &report.Table{
		Title:   "Ablation A3: area-weighted Equation (1) vs the global diversity fit (Figure 7's points)",
		Columns: []string{"model", "R^2"},
	}
	tab.AddRow("global log fit", fmt.Sprintf("%.4f", w.GlobalR2))
	tab.AddRow("area-weighted per-unit", fmt.Sprintf("%.4f", w.WeightedR2))
	return tab.String()
}

// ---------------------------------------------------------------------------
// A4 — open-line interpretation.

// openLineResult is ablation A4: the charge-retention open line against the
// two stuck-at models on one shared node sample of canrdr's IU.
type openLineResult struct {
	Open, SA0, SA1 float64
}

func openLine(o Options) (*openLineResult, error) {
	r, err := runnerFor("canrdr", workloads.Config{Iterations: o.iters()})
	if err != nil {
		return nil, err
	}
	out := &openLineResult{}
	out.Open, _ = pfOf(o, r, fault.TargetIU, rtl.OpenLine, 0)
	out.SA0, _ = pfOf(o, r, fault.TargetIU, rtl.StuckAt0, 0)
	out.SA1, _ = pfOf(o, r, fault.TargetIU, rtl.StuckAt1, 0)
	return out, nil
}

// Render prints the three Pf and whether the stuck-at models bracket the
// open line.
func (l *openLineResult) Render() string {
	tab := &report.Table{
		Title:   "Ablation A4: open-line (charge retention) vs stuck-at on canrdr IU nodes",
		Columns: []string{"model", "Pf"},
	}
	tab.AddRow(rtl.OpenLine.String(), report.Percent(l.Open))
	tab.AddRow(rtl.StuckAt0.String(), report.Percent(l.SA0))
	tab.AddRow(rtl.StuckAt1.String(), report.Percent(l.SA1))
	bracketed := min(l.SA0, l.SA1) <= l.Open && l.Open <= max(l.SA0, l.SA1)
	return tab.String() + fmt.Sprintf("open-line bracketed by the stuck-at models: %v\n", bracketed)
}
