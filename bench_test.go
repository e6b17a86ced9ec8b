package repro

// The engine timings: raw simulator throughput, the campaign engine's
// benchmarks and the early-exit cost ablation A1 (DESIGN.md §5), run with
// `go test -bench=. -benchmem`. The paper's tables and figures and the
// ablations A2-A4 are not timed here: `go run ./cmd/correlate` renders them,
// and internal/campaign's golden test pins them.

import (
	"testing"
	"time"

	"repro/core"
	"repro/internal/fault"
	"repro/internal/iss"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

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
