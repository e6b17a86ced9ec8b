package core

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/diversity"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/sparc"
)

func TestBuildAndRunISS(t *testing.T) {
	w, err := BuildWorkload("rspeed", WorkloadConfig{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	cpu := NewISS(w.Program)
	if st := cpu.Run(1_000_000); st != iss.StatusExited {
		t.Fatalf("status %v", st)
	}
	if cpu.Diversity() < 40 {
		t.Errorf("diversity %d", cpu.Diversity())
	}
}

func TestBuildAndRunRTL(t *testing.T) {
	w, err := BuildWorkload("intbench", WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	core := NewRTL(w.Program)
	if st := core.Run(1_000_000); st != iss.StatusExited {
		t.Fatalf("status %v", st)
	}
}

func TestMeasureDiversityProfile(t *testing.T) {
	w, err := BuildWorkload("membench", WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := MeasureDiversity(w)
	if err != nil {
		t.Fatal(err)
	}
	if prof.Diversity == 0 || prof.TotalInsts == 0 || prof.MemoryInsts == 0 {
		t.Errorf("degenerate profile %+v", prof)
	}
	if prof.UnitDiversity[sparc.UnitFetch] != prof.Diversity {
		t.Error("fetch unit diversity must equal total diversity")
	}
}

// TestRunCampaignFacade runs a campaign on a program of the caller's own
// (here a bundled one's, under a label of its own).
func TestRunCampaignFacade(t *testing.T) {
	w, err := BuildWorkload("excerptB", WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCampaign(context.Background(), w.Program, CampaignRequest{
		Workload: "candidate",
		Models:   []string{"sa1"},
		Nodes:    32,
		Seed:     5,
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Injections != 32 {
		t.Errorf("injections = %d", res.Injections)
	}
	if res.Pf <= 0 || res.Pf >= 1 {
		t.Errorf("Pf = %v", res.Pf)
	}
	if len(res.PfByUnit) == 0 {
		t.Error("missing per-unit grouping")
	}
	if res.GoldenCycles == 0 {
		t.Error("missing golden run length")
	}
	if res.Checkpointed {
		t.Error("checkpointed with injection at reset")
	}
	if res.Request.Workload != "candidate" {
		t.Errorf("outcome labelled %q, want the request's label", res.Request.Workload)
	}
}

func TestRunCampaignCheckpointToggle(t *testing.T) {
	w, err := BuildWorkload("excerptB", WorkloadConfig{})
	if err != nil {
		t.Fatal(err)
	}
	req := CampaignRequest{
		Workload:         "excerptB",
		Models:           []string{"sa1"},
		Nodes:            16,
		Seed:             5,
		InjectAtFraction: 0.5,
	}
	forked, err := RunCampaign(context.Background(), w.Program, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !forked.Checkpointed {
		t.Error("mid-run injection did not use the checkpoint engine")
	}
	req.NoCheckpoint = true
	reset, err := RunCampaign(context.Background(), w.Program, req, 0)
	if err != nil {
		t.Fatal(err)
	}
	if reset.Checkpointed {
		t.Error("NoCheckpoint request still checkpointed")
	}
	if forked.Pf != reset.Pf {
		t.Errorf("Pf differs: checkpointed %v, from-reset %v", forked.Pf, reset.Pf)
	}
	for i := range forked.Experiments {
		if forked.Experiments[i] != reset.Experiments[i] {
			t.Fatalf("experiment %d differs: %+v vs %+v", i, forked.Experiments[i], reset.Experiments[i])
		}
	}
}

func TestAreaWeightsNormalized(t *testing.T) {
	for _, target := range []Target{TargetIU, TargetCMEM} {
		ws := AreaWeights(target)
		sum := 0.0
		for _, v := range ws {
			if v < 0 || v > 1 {
				t.Errorf("%v: weight %v out of range", target, v)
			}
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("%v: weights sum to %v", target, sum)
		}
	}
}

// TestAreaWeightsCountTheDesign holds AreaWeights, which counts the fault
// design table's enumeration, to the count it replaced: a throwaway core's
// kernel, asked node by node.
func TestAreaWeightsCountTheDesign(t *testing.T) {
	for _, target := range []Target{TargetIU, TargetCMEM} {
		c := leon3.New(mem.NewBus(mem.NewMemory()), mem.RAMBase)
		counts := map[Unit]int{}
		for _, n := range c.K.Nodes(target.Prefix()) {
			counts[Unit(c.K.UnitOf(n.Name))]++
		}
		if got, want := AreaWeights(target), diversity.AreaWeights(counts); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: weights %v, the kernel's count gives %v", target, got, want)
		}
	}
}

func TestPredictPfMonotoneInDiversity(t *testing.T) {
	weights := AreaWeights(TargetIU)
	lo := Profile{UnitDiversity: [sparc.NumUnits]int{}}
	hi := Profile{UnitDiversity: [sparc.NumUnits]int{}}
	for u := 0; u < int(sparc.NumUnits); u++ {
		lo.UnitDiversity[u] = 5
		hi.UnitDiversity[u] = 45
	}
	a, b := 0.08, -0.02
	if PredictPf(lo, weights, a, b) >= PredictPf(hi, weights, a, b) {
		t.Error("predicted Pf not increasing with diversity")
	}
}

func TestAssembleProgramFacade(t *testing.T) {
	p, err := AssembleProgram("start:\n\tmov 1, %o0\n\tset 0x90000000, %o1\n\tst %o0, [%o1]\n\tnop\n")
	if err != nil {
		t.Fatal(err)
	}
	cpu := NewISS(p)
	if st := cpu.Run(100); st != iss.StatusExited {
		t.Fatalf("status %v", st)
	}
	if cpu.Bus.ExitCode() != 1 {
		t.Errorf("exit code %d", cpu.Bus.ExitCode())
	}
}

func TestWorkloadNamesComplete(t *testing.T) {
	names := WorkloadNames()
	if len(names) != 12 {
		t.Errorf("workloads = %d: %v", len(names), names)
	}
}
