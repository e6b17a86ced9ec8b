package campaign

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/diversity"
	"repro/internal/fault"
	"repro/internal/report"
	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Eq1Point is one benchmark's measured-versus-predicted failure
// probability.
type Eq1Point struct {
	Benchmark   string
	Diversity   int
	MeasuredPf  float64
	PredictedPf float64
}

// Eq1Result exercises the paper's Equation (1) end to end: per-unit
// failure probabilities Pmf are measured on a calibration set, a log
// model Pmf = a*ln(Dm)+b is fitted over (unit, benchmark) points, and
// each benchmark's total Pf is then predicted as the area-weighted sum —
// the workflow a verification team would run once per core generation and
// reuse at the ISS level thereafter.
type Eq1Result struct {
	// A and B are the means of the fitted per-unit slopes and intercepts
	// (the headline Pmf = A*ln(Dm)+B model).
	A, B  float64
	FitR2 float64
	// UnitFits holds the individual per-unit models the prediction uses.
	UnitFits map[sparc.Unit]UnitFit
	Points   []Eq1Point
	// PredCorr is the Pearson correlation between predicted and measured
	// benchmark Pf.
	PredCorr float64
}

// UnitFit is one functional unit's fitted Equation (1) model
// Pmf = A*ln(Dm) + B with its goodness of fit.
type UnitFit struct {
	A, B, R2 float64
}

// FitUnit fits one unit's log model over (diversity, Pmf) calibration
// points: the per-class fit Eq1 aggregates and the hybrid router's
// confidence machinery builds on.
func FitUnit(divs, pmfs []float64) (UnitFit, error) {
	a, b, r2, err := stats.LogFit(divs, pmfs)
	if err != nil {
		return UnitFit{}, err
	}
	return UnitFit{A: a, B: b, R2: r2}, nil
}

// AreaWeights returns Equation (1)'s alpha_m for target: each functional
// unit's share of the design's injectable nodes (the paper's area proxy),
// counted over the fault design table's enumeration.
func AreaWeights(target fault.Target) map[sparc.Unit]float64 {
	counts := map[sparc.Unit]int{}
	for _, n := range fault.Nodes(target) {
		counts[n.Unit]++
	}
	return diversity.AreaWeights(counts)
}

// Eq1 runs the calibration-and-predict experiment over the Table-1
// benchmarks with stuck-at-1 faults at the IU.
func Eq1(o Options) (*Eq1Result, error) {
	type benchData struct {
		name   string
		prof   diversity.Profile
		pf     float64
		unitPf map[sparc.Unit]float64
	}
	var all []benchData
	for _, name := range workloads.Table1Names() {
		cfg := workloads.Config{Iterations: o.iters()}
		w, err := workloads.Build(name, cfg)
		if err != nil {
			return nil, err
		}
		prof, err := diversity.Measure(name, w.Program, 50_000_000)
		if err != nil {
			return nil, err
		}
		r, err := runnerFor(name, cfg)
		if err != nil {
			return nil, err
		}
		pf, results := pfOf(o, r, fault.TargetIU, rtl.StuckAt1, 0)
		all = append(all, benchData{name: name, prof: prof, pf: pf, unitPf: fault.PfByUnit(results)})
	}

	// Fit Pmf = a_m*ln(Dm) + b_m per functional unit, across benchmarks —
	// the paper's "Dm has to be related with the failure probabilities
	// for the different processor functional units". Pooling units would
	// conflate their different base utilizations.
	fits := map[sparc.Unit]UnitFit{}
	var r2sum float64
	var r2n int
	var aAvg, bAvg float64
	for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
		var xs, ys []float64
		for _, b := range all {
			if d := b.prof.UnitDiversity[u]; d > 0 {
				if pmf, sampled := b.unitPf[u]; sampled {
					xs = append(xs, float64(d))
					ys = append(ys, pmf)
				}
			}
		}
		f, err := FitUnit(xs, ys)
		if err != nil {
			continue
		}
		fits[u] = f
		r2sum += f.R2
		r2n++
		aAvg += f.A
		bAvg += f.B
	}
	if r2n == 0 {
		return nil, fmt.Errorf("campaign: no unit admitted a fit")
	}

	out := &Eq1Result{
		A:        aAvg / float64(r2n),
		B:        bAvg / float64(r2n),
		FitR2:    r2sum / float64(r2n),
		UnitFits: fits,
	}
	weights := AreaWeights(fault.TargetIU)
	var preds, meas []float64
	for _, b := range all {
		pmf := diversity.UnitPf{}
		for u := sparc.Unit(0); u < sparc.NumUnits; u++ {
			if f, ok := fits[u]; ok && b.prof.UnitDiversity[u] > 0 {
				pmf[u] = min(max(f.A*math.Log(float64(b.prof.UnitDiversity[u]))+f.B, 0), 1)
			}
		}
		pred := diversity.CombinePf(weights, pmf)
		out.Points = append(out.Points, Eq1Point{
			Benchmark:   b.name,
			Diversity:   b.prof.Diversity,
			MeasuredPf:  b.pf,
			PredictedPf: pred,
		})
		preds = append(preds, pred)
		meas = append(meas, b.pf)
	}
	if corr, err := stats.Pearson(preds, meas); err == nil {
		out.PredCorr = corr
	}
	sort.Slice(out.Points, func(i, j int) bool {
		return out.Points[i].MeasuredPf > out.Points[j].MeasuredPf
	})
	return out, nil
}

// Render prints the calibration table.
func (e *Eq1Result) Render() string {
	tab := &report.Table{
		Title:   "Equation (1): area-weighted per-unit prediction vs measured Pf (SA1 @ IU)",
		Columns: []string{"benchmark", "diversity", "measured", "predicted"},
	}
	for _, p := range e.Points {
		tab.AddRow(p.Benchmark, p.Diversity, report.Percent(p.MeasuredPf), report.Percent(p.PredictedPf))
	}
	return tab.String() + fmt.Sprintf(
		"per-unit fits: mean slope %.4f, mean intercept %.4f, mean R^2 = %.3f; predicted-vs-measured r = %.3f\n",
		e.A, e.B, e.FitR2, e.PredCorr)
}
