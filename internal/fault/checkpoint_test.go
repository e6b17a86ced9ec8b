package fault

import (
	"fmt"
	"testing"

	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestCheckpointFidelity is the engine's correctness contract: forking
// every experiment from the golden-run checkpoint must produce exactly the
// same outcome sequence, latencies, run lengths and Pf as re-simulating
// each experiment from reset — across both injection targets and all three
// permanent fault models.
func TestCheckpointFidelity(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		for _, model := range rtl.FaultModels() {
			t.Run(fmt.Sprintf("%v-%v", target, model), func(t *testing.T) {
				forked, err := NewRunner(w.Program, Options{InjectAtFraction: 0.4})
				if err != nil {
					t.Fatal(err)
				}
				reset, err := NewRunner(w.Program, Options{InjectAtFraction: 0.4, NoCheckpoint: true})
				if err != nil {
					t.Fatal(err)
				}
				if !forked.Checkpointed() {
					t.Fatal("checkpoint engine inactive on default options")
				}
				if reset.Checkpointed() {
					t.Fatal("NoCheckpoint runner still checkpointed")
				}

				nodes := SampleNodes(forked.Nodes(target), 10, 3)
				exps := Expand(nodes, model)
				a := forked.Campaign(exps, 4)
				b := reset.Campaign(exps, 4)
				for i := range exps {
					if a[i] != b[i] {
						t.Errorf("experiment %v: forked %+v, from-reset %+v", exps[i], a[i], b[i])
					}
				}
				if pa, pb := Pf(a), Pf(b); pa != pb {
					t.Errorf("Pf: forked %v, from-reset %v", pa, pb)
				}
			})
		}
	}
}

// TestCheckpointInjectAtResetFallsBack: with injection at cycle 0 there
// is no golden prefix to skip, so the frozen `checkpointed` wire field
// stays false — but the ladder is on all the same, with the reset state
// as rung 0, and only NoCheckpoint turns it off.
func TestCheckpointInjectAtResetFallsBack(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Checkpointed() {
		t.Fatal("checkpointed with InjectAtCycle 0")
	}
	if lad := r.ladder(); lad == nil || lad.start != 0 || lad.rungs[0].writes != 0 {
		t.Fatalf("no reset-state rung 0 at instant 0: %+v", lad)
	}
	off, err := NewRunner(w.Program, Options{NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if off.ladder() != nil {
		t.Fatal("NoCheckpoint runner built a ladder")
	}
}

// TestInjectAtFractionRange: fractions outside [0,1) would silently place
// the injection instant at or past the golden run's end, so NewRunner
// rejects them.
func TestInjectAtFractionRange(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{-0.1, 1, 1.5, 50} {
		if _, err := NewRunner(w.Program, Options{InjectAtFraction: frac}); err == nil {
			t.Errorf("InjectAtFraction %v accepted", frac)
		}
	}
}

// TestCheckpointLateInjection exercises the boundary where the injection
// instant lies beyond the golden run's end: both engines must classify
// every fault as no-effect (the program already finished cleanly).
func TestCheckpointLateInjection(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	probe, err := NewRunner(w.Program, Options{NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	late := probe.GoldenCycles + 1000
	forked, err := NewRunner(w.Program, Options{InjectAtCycle: late})
	if err != nil {
		t.Fatal(err)
	}
	reset, err := NewRunner(w.Program, Options{InjectAtCycle: late, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	e := Experiment{
		Node:  NodeInfo{Node: rtl.Node{Name: "iu.ex.result", Bit: 20}},
		Model: rtl.StuckAt1,
	}
	a := forked.RunOne(e)
	b := reset.RunOne(e)
	if a != b {
		t.Fatalf("late injection: forked %+v, from-reset %+v", a, b)
	}
	if a.Outcome != OutcomeNoEffect {
		t.Fatalf("late injection propagated: %v", a.Outcome)
	}
}
