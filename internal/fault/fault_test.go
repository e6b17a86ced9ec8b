package fault

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/workloads"
)

func newRunner(t *testing.T, name string, cfg workloads.Config) *Runner {
	t.Helper()
	w, err := workloads.Build(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGoldenRunMatchesWorkload(t *testing.T) {
	r := newRunner(t, "excerptA", workloads.Config{})
	if !r.golden.Exited {
		t.Fatal("golden trace did not exit")
	}
	if len(r.golden.Writes) < 10 {
		t.Fatalf("golden writes = %d", len(r.golden.Writes))
	}
}

func TestNodesEnumerationAndUnits(t *testing.T) {
	iu := Nodes(TargetIU)
	cm := Nodes(TargetCMEM)
	if len(iu) == 0 || len(cm) == 0 {
		t.Fatalf("node counts: iu=%d cmem=%d", len(iu), len(cm))
	}
	for _, n := range iu {
		if !n.Unit.IsIU() {
			t.Fatalf("IU node %v tagged %v", n.Node, n.Unit)
		}
	}
	for _, n := range cm {
		if !n.Unit.IsCMEM() {
			t.Fatalf("CMEM node %v tagged %v", n.Node, n.Unit)
		}
	}
}

func TestSampleNodesDeterministic(t *testing.T) {
	nodes := Nodes(TargetIU)
	s1 := SampleNodes(nodes, 10, 42)
	s2 := SampleNodes(nodes, 10, 42)
	s3 := SampleNodes(nodes, 10, 43)
	if len(s1) != 10 {
		t.Fatalf("sample size %d", len(s1))
	}
	for i := range s1 {
		if s1[i].Node != s2[i].Node {
			t.Fatal("same seed produced different samples")
		}
	}
	diff := false
	for i := range s1 {
		if s1[i].Node != s3[i].Node {
			diff = true
		}
	}
	if !diff {
		t.Error("different seeds produced identical samples")
	}
	if got := SampleNodes(nodes, len(nodes)+5, 1); len(got) != len(nodes) {
		t.Errorf("oversample returned %d nodes", len(got))
	}
}

// TestSampleNodesMatchesPerm holds the sample, drawn without a permutation,
// to the permutation it is a prefix of: on the IU and the CMEM population,
// for sizes 1, 2, 48, 256 and either side of the population's, under seeds
// 0–63 and the edge seeds, the sample is the nodes at rand.Perm's first n
// positions — the whole population, in order, from its size on — and a size
// of 0 or less is an empty sample.
func TestSampleNodesMatchesPerm(t *testing.T) {
	seeds := append([]int64{}, sampleSeeds...)
	for seed := range int64(64) {
		seeds = append(seeds, seed)
	}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		nodes := Nodes(target)
		pop := len(nodes)
		for _, n := range []int{-1, 0, 1, 2, 48, 256, pop - 1, pop, pop + 1} {
			for _, seed := range seeds {
				checkSample(t, nodes, n, seed)
			}
		}
	}
}

// TestNodeNamesPrintedOnce: every node the design enumerates carries the
// name Node.String() prints, and a hand-built NodeInfo without one prints the
// same.
func TestNodeNamesPrintedOnce(t *testing.T) {
	for _, target := range []Target{TargetIU, TargetCMEM} {
		for _, n := range Nodes(target) {
			if n.name == "" || n.String() != n.Node.String() {
				t.Fatalf("%v: enumerated as %q, Node.String() prints %q", target, n.name, n.Node.String())
			}
			if hand := (NodeInfo{Node: n.Node, Unit: n.Unit}); hand.String() != n.String() {
				t.Fatalf("hand-built %v prints %q, enumerated %q", n.Node, hand.String(), n.String())
			}
		}
	}
}

func TestStuckAtOnALUPropagates(t *testing.T) {
	// A stuck-at on a high bit of the ALU output must corrupt results in
	// a workload doing arithmetic stores.
	r := newRunner(t, "excerptA", workloads.Config{})
	res := r.RunOne(Experiment{
		Node:  NodeInfo{Node: rtl.Node{Name: "iu.ex.result", Bit: 20}, Unit: sparc.UnitALU},
		Model: rtl.StuckAt1,
	})
	if !res.Outcome.IsFailure() {
		t.Fatalf("ALU stuck-at-1 did not fail: %v", res.Outcome)
	}
	if res.Outcome == OutcomeMismatch && res.Latency < 0 {
		t.Error("mismatch without latency")
	}
}

func TestUnusedUnitFaultIsSilent(t *testing.T) {
	// excerptA executes no multiply/divide: faults in the muldiv partial
	// registers must not propagate (this is the mechanism behind the
	// diversity correlation).
	r := newRunner(t, "excerptA", workloads.Config{})
	for _, bitNode := range []rtl.Node{
		{Name: "iu.md.acc", Bit: 13},
		{Name: "iu.md.quot", Bit: 5},
	} {
		res := r.RunOne(Experiment{
			Node:  NodeInfo{Node: bitNode, Unit: sparc.UnitMulDiv},
			Model: rtl.StuckAt1,
		})
		if res.Outcome != OutcomeNoEffect {
			t.Errorf("muldiv fault %v propagated: %v", bitNode, res.Outcome)
		}
	}
}

func TestStuckAt0OnZeroSignalIsSilent(t *testing.T) {
	// Stuck-at-0 on a bit that is always 0 in this run cannot manifest.
	r := newRunner(t, "excerptA", workloads.Config{})
	res := r.RunOne(Experiment{
		Node:  NodeInfo{Node: rtl.Node{Name: "iu.ctl.errm", Bit: 0}, Unit: sparc.UnitPSR},
		Model: rtl.StuckAt0,
	})
	if res.Outcome != OutcomeNoEffect {
		t.Errorf("sa0 on errm propagated: %v", res.Outcome)
	}
}

func TestPCFaultCausesControlFailure(t *testing.T) {
	r := newRunner(t, "excerptA", workloads.Config{})
	res := r.RunOne(Experiment{
		Node:  NodeInfo{Node: rtl.Node{Name: "iu.ctl.exppc", Bit: 3}, Unit: sparc.UnitBranch},
		Model: rtl.StuckAt1,
	})
	if !res.Outcome.IsFailure() {
		t.Errorf("PC fault did not fail: %v", res.Outcome)
	}
}

func TestCampaignParallelMatchesSerial(t *testing.T) {
	r := newRunner(t, "excerptA", workloads.Config{})
	nodes := SampleNodes(Nodes(TargetIU), 24, 7)
	exps := Expand(nodes, rtl.StuckAt1)
	serial := make([]Result, len(exps))
	for i, e := range exps {
		serial[i] = r.RunOne(e)
	}
	parallel := r.Campaign(exps, 8)
	for i := range exps {
		if serial[i].Outcome != parallel[i].Outcome {
			t.Fatalf("exp %d: serial %v, parallel %v", i, serial[i].Outcome, parallel[i].Outcome)
		}
	}
	p := pf(parallel)
	if p < 0 || p > 1 {
		t.Fatalf("Pf = %v", p)
	}
	t.Logf("excerptA IU sa1 sample Pf = %.3f, %d failures", p, failures(parallel))
}

func TestExpandCrossesModels(t *testing.T) {
	nodes := []NodeInfo{{}, {}}
	exps := Expand(nodes, rtl.StuckAt0, rtl.StuckAt1, rtl.OpenLine)
	if len(exps) != 6 {
		t.Fatalf("expanded %d", len(exps))
	}
}

func TestInjectionAtLaterInstant(t *testing.T) {
	r1, err := NewRunner(mustProg(t, "excerptA"), Options{InjectAtCycle: 0})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := NewRunner(mustProg(t, "excerptA"), Options{InjectAtCycle: 200})
	if err != nil {
		t.Fatal(err)
	}
	e := Experiment{
		Node:  NodeInfo{Node: rtl.Node{Name: "iu.ex.result", Bit: 0}, Unit: sparc.UnitALU},
		Model: rtl.StuckAt1,
	}
	a := r1.RunOne(e)
	b := r2.RunOne(e)
	// Permanent faults: both injection instants should produce failures
	// here, but the later injection cannot manifest earlier than its
	// instant.
	if a.Outcome == OutcomeNoEffect && b.Outcome != OutcomeNoEffect {
		t.Errorf("earlier injection weaker than later: %v vs %v", a.Outcome, b.Outcome)
	}
}

func mustProg(t *testing.T, name string) *asm.Program {
	t.Helper()
	w, err := workloads.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Program
}
