package fault

import (
	"reflect"
	"testing"

	"repro/internal/rtl"
	"repro/internal/workloads"
)

func newISSRunner(t *testing.T, opts Options, cycleRef, fixedCycle uint64) *ISSRunner {
	t.Helper()
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewISSRunner(w.Program, opts, cycleRef, fixedCycle)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestISSGoldenRunExits(t *testing.T) {
	r := newISSRunner(t, Options{}, 0, 0)
	if !r.golden.Exited {
		t.Fatal("ISS golden trace did not exit")
	}
	if r.goldenInsts == 0 {
		t.Fatal("zero golden instruction count")
	}
	if got, want := r.GoldenTicks(), r.goldenInsts; got != want {
		t.Fatalf("native GoldenTicks = %d, want goldenInsts %d", got, want)
	}
}

// The ISS engine holds no node list of its own: its callers hand it
// experiments over the design's, Nodes. The RTL runner's enumeration, which
// the benchmark's engine layer samples from, must be that same list, so both
// engines inject the same nodes.
func TestISSNodesMatchRTL(t *testing.T) {
	rr := newRunner(t, "excerptA", workloads.Config{})
	for _, target := range []Target{TargetIU, TargetCMEM} {
		if !reflect.DeepEqual(Nodes(target), rr.Nodes(target)) {
			t.Fatalf("%v node enumeration diverges between engines", target)
		}
	}
}

// The ISS engine must schedule the byte-identical transient instants the
// RTL engine does when pinned to its cycle timebase — the hybrid router
// feeds one experiment list to both sides.
func TestISSScheduleMatchesRTLWhenPinned(t *testing.T) {
	rr := newRunner(t, "excerptA", workloads.Config{})
	rr.opts.InjectAtCycle = rr.GoldenCycles / 3
	ir := newISSRunner(t, Options{}, rr.GoldenCycles, rr.InjectCycle())

	nodes := SampleNodes(Nodes(TargetIU), 8, 1)
	a := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	b := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	rr.ScheduleTransients(a, 42)
	ir.ScheduleTransients(b, 42)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("pinned ISS transient schedule diverges from RTL schedule")
	}
}

// Checkpoint-forked and from-reset ISS execution must classify
// identically — the same engine-equivalence contract the RTL runner
// keeps.
func TestISSCheckpointEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ck, err := NewISSRunner(w.Program, Options{InjectAtFraction: 0.4}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewISSRunner(w.Program, Options{InjectAtFraction: 0.4, NoCheckpoint: true}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !ck.Checkpointed() || plain.Checkpointed() {
		t.Fatal("checkpoint engine gating wrong")
	}
	nodes := SampleNodes(Nodes(TargetIU), 16, 7)
	exps := Expand(nodes, rtl.FaultModels()...)
	ck.ScheduleTransients(exps, 7)
	plain.ScheduleTransients(exps, 7)
	a := ck.Campaign(exps, 4)
	b := plain.Campaign(exps, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("checkpointed ISS campaign diverges from from-reset campaign")
	}
}

func TestISSRunOneDeterministic(t *testing.T) {
	r := newISSRunner(t, Options{InjectAtFraction: 0.5}, 0, 0)
	nodes := SampleNodes(Nodes(TargetIU), 6, 3)
	exps := Expand(nodes, rtl.FaultModels()...)
	r.ScheduleTransients(exps, 3)
	for _, e := range exps {
		if a, b := r.RunOne(e), r.RunOne(e); !reflect.DeepEqual(a, b) {
			t.Fatalf("nondeterministic result for %v: %+v vs %+v", e.Node.Node, a, b)
		}
	}
}

func TestAuditSample(t *testing.T) {
	for i := 0; i < 100; i++ {
		if !AuditSample(1, i, 1.0) {
			t.Fatal("fraction 1.0 must audit everything")
		}
		if AuditSample(1, i, 0) {
			t.Fatal("fraction 0 must audit nothing")
		}
		if AuditSample(5, i, 0.3) != AuditSample(5, i, 0.3) {
			t.Fatal("audit draw not deterministic")
		}
	}
	// The draw is keyed by (seed, index) alone, and roughly respects the
	// fraction over a large sample.
	n := 0
	for i := 0; i < 10000; i++ {
		if AuditSample(9, i, 0.25) {
			n++
		}
	}
	if n < 2200 || n > 2800 {
		t.Fatalf("audit fraction 0.25 selected %d/10000", n)
	}
	// Different seeds select different sets.
	same := 0
	for i := 0; i < 1000; i++ {
		if AuditSample(1, i, 0.5) == AuditSample(2, i, 0.5) {
			same++
		}
	}
	if same > 950 {
		t.Fatalf("seeds 1 and 2 agree on %d/1000 draws", same)
	}
}
