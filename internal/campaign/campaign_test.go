package campaign

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/workloads"
)

// small keeps test campaigns fast; benchmarks use larger samples.
var small = Options{Nodes: 48, Seed: 1, Iterations: 2}

// TestZeroNodesIsCensus holds Options.Nodes to the meaning it has in
// jobs.Request and faultcampaign -nodes 0: 0 injects every node, and a
// positive count draws that many.
func TestZeroNodesIsCensus(t *testing.T) {
	all := fault.Nodes(fault.TargetIU)
	if got := (Options{Seed: 1}).sample(all); !reflect.DeepEqual(got, all) {
		t.Errorf("Nodes 0: %d nodes, want all %d", len(got), len(all))
	}
	if got := small.sample(all); !reflect.DeepEqual(got, fault.SampleNodes(all, 48, 1)) || len(got) != 48 {
		t.Errorf("Nodes 48: %d nodes, want the seed-1 sample of 48", len(got))
	}
}

func TestTable1ShapeMatchesPaper(t *testing.T) {
	res, err := Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	byName := map[string]Table1Row{}
	for _, r := range res.Rows {
		byName[r.Name] = r
	}
	// Automotive benchmarks share a diversity plateau well above the
	// synthetic ones (paper: 47-48 vs 18-20).
	for _, n := range []string{"puwmod", "canrdr", "ttsprk", "rspeed"} {
		if d := byName[n].Diversity; d < 40 {
			t.Errorf("%s diversity %d below plateau", n, d)
		}
		if byName[n].Total < 50_000 {
			t.Errorf("%s total %d too small", n, byName[n].Total)
		}
	}
	for _, n := range []string{"membench", "intbench"} {
		if d := byName[n].Diversity; d > 26 {
			t.Errorf("%s diversity %d above synthetic band", n, d)
		}
	}
	if byName["intbench"].Total > 10_000 {
		t.Errorf("intbench total %d, paper has 2621", byName["intbench"].Total)
	}
	out := res.Render()
	if !strings.Contains(out, "Diversity") || !strings.Contains(out, "puwmod") {
		t.Error("render missing expected cells")
	}
}

func TestFigure3DataSensitivity(t *testing.T) {
	res, err := Figure3(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Pf <= 0 || p.Pf >= 0.9 {
			t.Errorf("%s/%s: implausible Pf %.3f", p.Subset, p.Dataset, p.Pf)
		}
	}
	// Input data moves Pf by a few percentage points, not tens.
	if res.SpreadA > 0.15 || res.SpreadB > 0.15 {
		t.Errorf("spreads too large: %.3f %.3f", res.SpreadA, res.SpreadB)
	}
	_ = res.Render()
}

func TestFigure4IterationStability(t *testing.T) {
	// The latency tail comes from faults in rarely-read register-file
	// cells, so this figure needs a larger node sample than the others.
	res, err := Figure4(Options{Nodes: 192, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 3 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Panel (a): Pf approximately constant across iteration counts.
	base := res.Points[0].Pf
	for _, p := range res.Points {
		if diff := p.Pf - base; diff > 0.06 || diff < -0.06 {
			t.Errorf("rspeed%d Pf %.3f deviates from rspeed2 %.3f", p.Iterations, p.Pf, base)
		}
	}
	// Panel (b): max propagation latency grows with iterations.
	if !(res.Points[2].MaxLatencyUS > res.Points[0].MaxLatencyUS) {
		t.Errorf("latency did not grow: %v", res.Points)
	}
	_ = res.Render()
}

func TestFigure5AutomotivePlateauAndSyntheticDip(t *testing.T) {
	res, err := Figure5(small)
	if err != nil {
		t.Fatal(err)
	}
	sa1 := map[string]float64{}
	for _, p := range res.Points {
		if p.Model.String() == "stuck-at-1" {
			sa1[p.Benchmark] = p.Pf
		}
	}
	auto := []float64{sa1["puwmod"], sa1["canrdr"], sa1["ttsprk"], sa1["rspeed"]}
	min, max := auto[0], auto[0]
	for _, v := range auto {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	// Paper: automotive Pf almost constant; synthetics clearly below.
	if max-min > 0.12 {
		t.Errorf("automotive Pf not flat: spread %.3f (%v)", max-min, sa1)
	}
	autoMean := (auto[0] + auto[1] + auto[2] + auto[3]) / 4
	if sa1["intbench"] >= autoMean {
		t.Errorf("intbench Pf %.3f not below automotive mean %.3f", sa1["intbench"], autoMean)
	}
	t.Logf("Figure5 sa1: %v", sa1)
	_ = res.Render()
}

func TestFigure6CMEM(t *testing.T) {
	res, err := Figure6(small)
	if err != nil {
		t.Fatal(err)
	}
	if res.Target != fault.TargetCMEM {
		t.Fatal("wrong target")
	}
	if len(res.Points) != 18 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Pf < 0 || p.Pf > 0.8 {
			t.Errorf("%s/%v: implausible CMEM Pf %.3f", p.Benchmark, p.Model, p.Pf)
		}
	}
	_ = res.Render()
}

func TestFigure7CorrelationIsPositiveAndLogShaped(t *testing.T) {
	res, err := Figure7(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 12 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.A <= 0 {
		t.Errorf("fit slope %.4f not positive", res.A)
	}
	if res.R2 < 0.5 {
		t.Errorf("R^2 = %.3f, correlation too weak", res.R2)
	}
	t.Logf("fit: y = %.4f*ln(x) %+.4f, R^2 = %.3f", res.A, res.Bderiv, res.R2)
	_ = res.Render()
}

func TestExtTransientTemporalVariation(t *testing.T) {
	res, err := ExtTransient(small, "rspeed")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Transient Pf must not exceed the permanent Pf on the same nodes,
	// and must show some temporal variation (the effect the paper's
	// permanent-fault restriction removes).
	for _, p := range res.Points {
		if p.Pf > res.PermanentPf+0.05 {
			t.Errorf("transient Pf %.3f at cycle %d above permanent %.3f", p.Pf, p.AtCycle, res.PermanentPf)
		}
	}
	_ = res.Render()
}

func TestEq1CalibrationPredicts(t *testing.T) {
	res, err := Eq1(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 6 {
		t.Fatalf("points = %d", len(res.Points))
	}
	if res.A <= 0 {
		t.Errorf("per-unit slope %.4f not positive", res.A)
	}
	// Predictions must rank the benchmarks consistently with the
	// measurements (the whole point of Equation 1).
	if res.PredCorr < 0.5 {
		t.Errorf("predicted-vs-measured correlation %.3f too weak", res.PredCorr)
	}
	for _, p := range res.Points {
		if p.PredictedPf < 0 || p.PredictedPf > 1 {
			t.Errorf("%s: prediction %.3f out of range", p.Benchmark, p.PredictedPf)
		}
	}
	t.Logf("%s", res.Render())
}

func TestSimTimeRatio(t *testing.T) {
	res, err := SimTime(Options{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The whole point of the paper: ISS is orders of magnitude cheaper.
	if res.Speedup < 5 {
		t.Errorf("RTL/ISS slowdown only %.1fx", res.Speedup)
	}
	if res.CampaignRuns < 10000 {
		t.Errorf("campaign size %d suspiciously small", res.CampaignRuns)
	}
	t.Logf("%s", res.Render())
}

// TestRunnerCacheMemoizes pins the campaign-wide golden-run reuse: the
// same (workload, config, runner options) key must yield the same cached
// runner — one golden run and one checkpoint per process, shared across
// every figure — while a different config or engine option builds its
// own.
func TestRunnerCacheMemoizes(t *testing.T) {
	cfg := workloads.Config{Iterations: 2}
	a, err := runnerFor("rspeed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runnerFor("rspeed", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical key rebuilt the runner (golden run re-simulated)")
	}
	c, err := runnerFor("rspeed", workloads.Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different iteration count shared a runner")
	}
	d, err := RunnerFor("rspeed", cfg, fault.Options{InjectAtFraction: injectFraction, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Error("NoCheckpoint shared a checkpointed runner")
	}
}

func TestTransientBreakdown(t *testing.T) {
	res, err := TransientBreakdown(small, "rspeed", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d, want one per fault model", len(res.Rows))
	}
	perm, trans := 0, 0
	for _, row := range res.Rows {
		if row.Transient {
			trans++
		} else {
			perm++
		}
		if row.PfLow < 0 || row.PfHigh > 1 || row.PfLow > row.Pf || row.Pf > row.PfHigh {
			t.Errorf("%v: interval [%v,%v] does not bracket Pf %v", row.Model, row.PfLow, row.PfHigh, row.Pf)
		}
	}
	if perm != 3 || trans != 2 {
		t.Fatalf("class split %d permanent / %d transient, want 3/2", perm, trans)
	}
	// Single upsets expose strictly less corruption opportunity than
	// permanent forcing on the same sample.
	if res.TransientPf > res.PermanentPf+0.05 {
		t.Errorf("transient class Pf %.3f above permanent %.3f", res.TransientPf, res.PermanentPf)
	}
	// Deterministic: the same options reproduce the same breakdown.
	again, err := TransientBreakdown(small, "rspeed", 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, again) {
		t.Fatal("breakdown not reproducible")
	}
	_ = res.Render()
}
