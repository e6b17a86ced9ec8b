package fault

import (
	"testing"

	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/workloads"
)

func TestTransientFlipTemporalDependence(t *testing.T) {
	// Transient outcome depends on WHEN the flip happens (the temporal
	// sensitivity the paper removes by restricting itself to permanent
	// faults). A flip in the expected-PC register is catastrophic while
	// the program runs, and harmless after the exit store has retired.
	r := newRunner(t, "excerptA", workloads.Config{})
	exppc := NodeInfo{Node: rtl.Node{Name: "iu.ctl.exppc", Bit: 4}, Unit: sparc.UnitBranch}
	early := r.RunOne(Experiment{Node: exppc, Model: rtl.BitFlip, AtCycle: 50})
	if !early.Outcome.IsFailure() {
		t.Errorf("early PC flip did not fail: %v", early.Outcome)
	}
	late := r.RunOne(Experiment{Node: exppc, Model: rtl.BitFlip, AtCycle: r.GoldenCycles - 1})
	if late.Outcome != OutcomeNoEffect {
		t.Errorf("post-exit flip propagated: %v", late.Outcome)
	}
}

func TestTransientWeakerThanPermanent(t *testing.T) {
	// On the same node sample, single flips must not out-fail permanent
	// stuck-at faults (they expose strictly less opportunity).
	r := newRunner(t, "excerptB", workloads.Config{})
	nodes := SampleNodes(r.Nodes(TargetIU), 48, 11)
	perm := r.Campaign(Expand(nodes, rtl.StuckAt1), 0)
	flips := Expand(nodes, rtl.BitFlip)
	for i := range flips {
		flips[i].AtCycle = 100
	}
	trans := r.Campaign(flips, 0)
	pfPerm, pfTrans := Pf(perm), Pf(trans)
	t.Logf("permanent Pf=%.3f transient Pf=%.3f", pfPerm, pfTrans)
	if pfTrans > pfPerm+0.05 {
		t.Errorf("transient Pf %.3f exceeds permanent %.3f", pfTrans, pfPerm)
	}
}

func TestTransientFlipInDeadStateIsSilent(t *testing.T) {
	r := newRunner(t, "excerptA", workloads.Config{})
	res := r.RunOne(Experiment{
		Node:  NodeInfo{Node: rtl.Node{Name: "iu.md.acc", Bit: 32}, Unit: sparc.UnitMulDiv},
		Model: rtl.BitFlip, AtCycle: 100,
	})
	if res.Outcome != OutcomeNoEffect {
		t.Errorf("flip in unused muldiv unit propagated: %v", res.Outcome)
	}
}
