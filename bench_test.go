package repro

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each experiment
// benchmark prints its paper-style artifact once and reports the headline
// quantities as custom metrics, so the -bench output is itself the
// reproduction record. The Ablation* benchmarks exercise the design
// choices called out in DESIGN.md §5.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/core"
	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/iss"
	"repro/internal/rtl"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// campaignExtTransient is the future-work transient sweep (not part of the
// stable core facade).
var campaignExtTransient = campaign.ExtTransient

// benchOpts balances precision and harness runtime.
var benchOpts = core.ExperimentOptions{Nodes: 192, Seed: 1, Iterations: 2}

var printOnce sync.Map

func printFirst(key, s string) {
	if _, dup := printOnce.LoadOrStore(key, true); !dup {
		fmt.Println(s)
	}
}

// BenchmarkTable1 regenerates the benchmark characterization table.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Table1()
		if err != nil {
			b.Fatal(err)
		}
		printFirst("table1", res.Render())
	}
}

// BenchmarkFigure3 regenerates the input-data-variation excerpts.
func BenchmarkFigure3(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		res, err := core.Figure3(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig3", res.Render())
		if res.SpreadA > res.SpreadB {
			spread = res.SpreadA
		} else {
			spread = res.SpreadB
		}
	}
	b.ReportMetric(100*spread, "max-spread-pp")
}

// BenchmarkFigure4 regenerates the iteration-scaling experiment.
func BenchmarkFigure4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure4(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig4", res.Render())
		b.ReportMetric(res.Points[0].Pf*100, "Pf2-%")
		b.ReportMetric(res.Points[2].Pf*100, "Pf10-%")
		b.ReportMetric(res.Points[2].MaxLatencyUS, "maxlat10-us")
	}
}

// BenchmarkFigure5 regenerates the IU-node fault sweep.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure5(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig5", res.Render())
	}
}

// BenchmarkFigure6 regenerates the CMEM-node fault sweep.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure6(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig6", res.Render())
	}
}

// BenchmarkFigure7 regenerates the diversity correlation and its log fit.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure7(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("fig7", res.Render())
		b.ReportMetric(res.R2, "R2")
		b.ReportMetric(res.A, "ln-slope")
	}
}

// BenchmarkSimTime regenerates the §4.2 simulation-time comparison.
func BenchmarkSimTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.SimTime(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("simtime", res.Render())
		b.ReportMetric(res.Speedup, "RTL/ISS-slowdown")
	}
}

// BenchmarkEq1 runs the Equation-(1) calibration-and-predict workflow.
func BenchmarkEq1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := campaign.Eq1(benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		printFirst("eq1", res.Render())
		b.ReportMetric(res.PredCorr, "pred-corr")
		b.ReportMetric(res.FitR2, "unit-fit-R2")
	}
}

// BenchmarkExtTransient runs the future-work transient-fault sweep.
func BenchmarkExtTransient(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := campaignExtTransient(benchOpts, "rspeed")
		if err != nil {
			b.Fatal(err)
		}
		printFirst("ext-transient", res.Render())
		b.ReportMetric(100*res.PermanentPf, "Pf-perm-%")
		b.ReportMetric(100*res.Points[0].Pf, "Pf-flip-early-%")
		b.ReportMetric(100*res.Points[len(res.Points)-1].Pf, "Pf-flip-late-%")
	}
}

// BenchmarkISSExecution measures raw functional-simulation throughput.
func BenchmarkISSExecution(b *testing.B) {
	w, err := core.BuildWorkload("puwmod", core.WorkloadConfig{})
	if err != nil {
		b.Fatal(err)
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cpu := core.NewISS(w.Program)
		if st := cpu.Run(100_000_000); st != iss.StatusExited {
			b.Fatal(st)
		}
		insts = cpu.Icount
	}
	b.ReportMetric(float64(insts)*float64(b.N)/b.Elapsed().Seconds(), "inst/s")
}

// BenchmarkRTLExecution measures raw RTL-simulation throughput.
func BenchmarkRTLExecution(b *testing.B) {
	w, err := core.BuildWorkload("puwmod", core.WorkloadConfig{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	var cycles uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rt := core.NewRTL(w.Program)
		if st := rt.Run(400_000_000); st != iss.StatusExited {
			b.Fatal(st)
		}
		cycles = rt.Cycles()
	}
	b.ReportMetric(float64(cycles)*float64(b.N)/b.Elapsed().Seconds(), "cycles/s")
}

// benchmarkCampaignEngine times an identical campaign with the injection
// instant at half the golden run, either forked from the golden-run
// checkpoint or re-simulated from reset. The pair is the checkpointed
// engine's headline: the warm-up prefix is simulated once instead of once
// per experiment, so the checkpointed variant must be severalfold faster
// while producing the same Pf.
func benchmarkCampaignEngine(b *testing.B, noCheckpoint bool) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fault.NewRunner(w.Program, fault.Options{
		InjectAtFraction: 0.5,
		NoCheckpoint:     noCheckpoint,
	})
	if err != nil {
		b.Fatal(err)
	}
	nodes := fault.SampleNodes(r.Nodes(fault.TargetIU), 48, 1)
	exps := fault.Expand(nodes, rtl.StuckAt1)
	r.PrepareCheckpoint() // capture outside the timed region
	var pf float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf = fault.Pf(r.Campaign(exps, 0))
	}
	b.ReportMetric(100*pf, "Pf-%")
	b.ReportMetric(float64(len(exps))*float64(b.N)/b.Elapsed().Seconds(), "exp/s")
}

// BenchmarkCampaignCheckpointed forks every experiment from the golden-run
// snapshot at the injection instant (the default engine).
func BenchmarkCampaignCheckpointed(b *testing.B) {
	benchmarkCampaignEngine(b, false)
}

// BenchmarkCampaignFromReset re-simulates every experiment's warm-up
// prefix from cycle 0 (the paper's original cost model).
func BenchmarkCampaignFromReset(b *testing.B) {
	benchmarkCampaignEngine(b, true)
}

// BenchmarkCampaignTransient times the transient-model engine: SEU
// bit-flips and 2-cycle SET pulses with per-experiment injection cycles
// scheduled across the golden run, forked from the same checkpoint the
// permanent campaigns use. Its exp/s sits in the committed BENCH_PR*.json
// records next to the permanent baseline, so transient throughput is
// tracked without perturbing the committed permanent numbers.
func BenchmarkCampaignTransient(b *testing.B) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fault.NewRunner(w.Program, fault.Options{
		InjectAtFraction: 0.5,
		PulseCycles:      2,
	})
	if err != nil {
		b.Fatal(err)
	}
	nodes := fault.SampleNodes(r.Nodes(fault.TargetIU), 48, 1)
	exps := fault.Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(exps, 1)
	r.PrepareCheckpoint() // capture outside the timed region
	var pf float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pf = fault.Pf(r.Campaign(exps, 0))
	}
	b.ReportMetric(100*pf, "Pf-%")
	b.ReportMetric(float64(len(exps))*float64(b.N)/b.Elapsed().Seconds(), "exp/s")
}

// BenchmarkCampaignHybrid times the hybrid router's prediction engine:
// the ISS campaign pass that stands in for RTL re-simulation on trusted
// node classes, pinned to the RTL golden run's timebase exactly as the
// hybrid planner pins it — losing ISS campaign throughput erases the
// hybrid's whole reason to exist. The ISS-vs-RTL speedup over the
// identical experiment list is reported alongside in a ratio unit, so
// the record carries the routing economics as well.
func BenchmarkCampaignHybrid(b *testing.B) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	rtlR, err := fault.NewRunner(w.Program, fault.Options{InjectAtFraction: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	issR, err := fault.NewISSRunner(w.Program, fault.Options{InjectAtFraction: 0.5},
		rtlR.GoldenCycles, rtlR.InjectCycle())
	if err != nil {
		b.Fatal(err)
	}
	nodes := fault.SampleNodes(rtlR.Nodes(fault.TargetIU), 48, 1)
	exps := fault.Expand(nodes, rtl.StuckAt1)
	rtlR.PrepareCheckpoint()
	// One RTL pass outside the timed region: the denominator of the
	// speedup ratio, and the batched engine the audits would run on.
	rtlStart := time.Now()
	rtlRes := rtlR.Campaign(exps, 0)
	rtlPerExp := time.Since(rtlStart).Seconds() / float64(len(exps))
	issR.Campaign(exps, 0) // warm the ISS checkpoint outside the timed region
	var res []fault.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res = issR.Campaign(exps, 0)
	}
	issPerExp := b.Elapsed().Seconds() / (float64(len(exps)) * float64(b.N))
	b.ReportMetric(100*fault.Pf(res), "Pf-iss-%")
	b.ReportMetric(100*fault.Pf(rtlRes), "Pf-rtl-%")
	b.ReportMetric(1/issPerExp, "exp/s")
	b.ReportMetric(rtlPerExp/issPerExp, "iss-vs-rtl-x")
}

// BenchmarkSingleInjection measures the cost of one fault experiment.
func BenchmarkSingleInjection(b *testing.B) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fault.NewRunner(w.Program, fault.Options{})
	if err != nil {
		b.Fatal(err)
	}
	e := fault.Experiment{
		Node:  fault.NodeInfo{Node: rtl.Node{Name: "iu.ex.result", Bit: 5}},
		Model: rtl.StuckAt1,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.RunOne(e)
	}
}

// BenchmarkAblationEarlyExit compares campaign cost with and without the
// first-mismatch early exit (DESIGN.md A1). Classifications are identical;
// only wall-clock differs.
func BenchmarkAblationEarlyExit(b *testing.B) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		opts fault.Options
	}{
		{"early-exit", fault.Options{}},
		{"full-run", fault.Options{NoEarlyExit: true}},
	} {
		b.Run(mode.name, func(b *testing.B) {
			r, err := fault.NewRunner(w.Program, mode.opts)
			if err != nil {
				b.Fatal(err)
			}
			nodes := fault.SampleNodes(r.Nodes(fault.TargetIU), 64, 1)
			exps := fault.Expand(nodes, rtl.StuckAt1)
			var pf float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pf = fault.Pf(r.Campaign(exps, 0))
			}
			b.ReportMetric(100*pf, "Pf-%")
		})
	}
}

// BenchmarkAblationSampleSize shows the Pf estimate stabilizing with the
// statistical-fault-injection sample size (DESIGN.md A2).
func BenchmarkAblationSampleSize(b *testing.B) {
	w, err := workloads.Build("ttsprk", workloads.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fault.NewRunner(w.Program, fault.Options{})
	if err != nil {
		b.Fatal(err)
	}
	all := r.Nodes(fault.TargetIU)
	for _, n := range []int{64, 128, 256, 512} {
		b.Run(fmt.Sprintf("nodes-%d", n), func(b *testing.B) {
			var pf float64
			for i := 0; i < b.N; i++ {
				nodes := fault.SampleNodes(all, n, 1)
				pf = fault.Pf(r.Campaign(fault.Expand(nodes, rtl.StuckAt1), 0))
			}
			b.ReportMetric(100*pf, "Pf-%")
		})
	}
}

// BenchmarkAblationWeightedEq1 compares the R^2 of the plain global
// diversity fit against the Equation-(1) area-weighted per-unit model
// (DESIGN.md A3).
func BenchmarkAblationWeightedEq1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := core.Figure7(core.ExperimentOptions{Nodes: 128, Seed: 1, Iterations: 2})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.R2, "R2-global")

		// Weighted model: predict each point from its per-unit diversity
		// using the fitted coefficients, then fit predictions to
		// measurements.
		weights := core.AreaWeights(core.TargetIU)
		var xs, ys []float64
		for _, p := range res.Points {
			name := p.Label
			cfg := core.WorkloadConfig{Iterations: 2}
			if len(name) > 8 && name[:7] == "excerpt" {
				cfg = core.WorkloadConfig{Dataset: int(name[len(name)-1] - '0')}
				name = name[:8]
			}
			w, err := core.BuildWorkload(name, cfg)
			if err != nil {
				b.Fatal(err)
			}
			prof, err := core.MeasureDiversity(w)
			if err != nil {
				b.Fatal(err)
			}
			xs = append(xs, core.PredictPf(prof, weights, res.A, res.Bderiv))
			ys = append(ys, p.Pf)
		}
		_, _, r2w, err := stats.LinFit(xs, ys)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r2w, "R2-weighted")
	}
}

// BenchmarkAblationOpenLineModel compares the charge-retention open-line
// interpretation against a discharge-to-0 one (DESIGN.md A4): open-line
// Pf is bracketed by the stuck-at models.
func BenchmarkAblationOpenLineModel(b *testing.B) {
	w, err := workloads.Build("canrdr", workloads.Config{Iterations: 2})
	if err != nil {
		b.Fatal(err)
	}
	r, err := fault.NewRunner(w.Program, fault.Options{})
	if err != nil {
		b.Fatal(err)
	}
	nodes := fault.SampleNodes(r.Nodes(fault.TargetIU), 128, 1)
	for i := 0; i < b.N; i++ {
		open := fault.Pf(r.Campaign(fault.Expand(nodes, rtl.OpenLine), 0))
		sa0 := fault.Pf(r.Campaign(fault.Expand(nodes, rtl.StuckAt0), 0))
		sa1 := fault.Pf(r.Campaign(fault.Expand(nodes, rtl.StuckAt1), 0))
		b.ReportMetric(100*open, "Pf-open-%")
		b.ReportMetric(100*sa0, "Pf-sa0-%")
		b.ReportMetric(100*sa1, "Pf-sa1-%")
	}
}
