package fault

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/obs"
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

				nodes := SampleNodes(Nodes(target), 10, 3)
				exps := Expand(nodes, model)
				a := forked.Campaign(exps, 4)
				b := reset.Campaign(exps, 4)
				for i := range exps {
					if a[i] != b[i] {
						t.Errorf("experiment %v: forked %+v, from-reset %+v", exps[i], a[i], b[i])
					}
				}
				if pa, pb := pf(a), pf(b); pa != pb {
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

// TestPulseCyclesRange: a glitch wider than MaxPulseCycles would wrap its
// release instant and read as no pulse at all, so both engines refuse it.
func TestPulseCyclesRange(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, pulse := range []uint64{MaxPulseCycles + 1, math.MaxUint64} {
		if _, err := NewRunner(w.Program, Options{PulseCycles: pulse}); err == nil {
			t.Errorf("NewRunner: PulseCycles %d accepted", pulse)
		}
		if _, err := NewISSRunner(w.Program, Options{PulseCycles: pulse}, 0, 0); err == nil {
			t.Errorf("NewISSRunner: PulseCycles %d accepted", pulse)
		}
	}
	if _, err := NewRunner(w.Program, Options{PulseCycles: MaxPulseCycles}); err != nil {
		t.Errorf("PulseCycles %d refused: %v", uint64(MaxPulseCycles), err)
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

// TestStrideIndependence: the ladder's stride is a cost, never a result.
// On generated programs and the rspeed and puwmod workalikes, a campaign
// over every fault model reads the same with a rung on every cycle, every
// 16 (the production spacing), every 128 (the one before it) and with one
// rung only — no heal ever seen before the last rung, every fork replayed
// from the instant — and all of them read what the from-reset reference
// reads. The campaign carries 160 upsets more, over other IU nodes and
// some CMEM words: an upset's universe is parked only on a rung's own
// cycle, so where the rungs fall decides which parks are seen, and must
// decide nothing else. The stride is set on the runner before its ladder is
// built, which only a test can do.
func TestStrideIndependence(t *testing.T) {
	type prog struct {
		name string
		p    *asm.Program
	}
	var progs []prog
	for _, seed := range []int64{1, 2, 3} {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		progs = append(progs, prog{fmt.Sprintf("generated-%d", seed), p})
	}
	for _, name := range []string{"rspeed", "puwmod"} {
		w, err := workloads.Build(name, workloads.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{name, w.Program})
	}
	for _, pr := range progs {
		p := pr.p
		t.Run(pr.name, func(t *testing.T) {
			opts := Options{InjectAtFraction: 0.5, PulseCycles: 2}
			_, ref := enginePair(t, p, opts) // skips a program that ends in a trap
			exps := Expand(SampleNodes(Nodes(TargetIU), 48, 7), rtl.AllFaultModels()...)
			exps = append(exps, Expand(append(SampleNodes(Nodes(TargetIU), 128, 11), SampleNodes(Nodes(TargetCMEM), 32, 11)...), rtl.BitFlip)...)
			ref.ScheduleTransients(exps, 7)
			want := ref.Campaign(exps, 0)
			for _, stride := range []uint64{1, rungSpacing, 128, ref.GoldenCycles + 1} {
				r, err := NewRunner(p, opts)
				if err != nil {
					t.Fatal(err)
				}
				r.stride = stride
				got := r.Campaign(exps, 2)
				if lad := r.ladder(); lad.stride != stride || stride > ref.GoldenCycles && len(lad.rungs) != 1 {
					t.Fatalf("stride %d: the ladder has stride %d and %d rungs", stride, lad.stride, len(lad.rungs))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("stride %d: %v %v@%d: got %+v, reference %+v", stride, exps[i].Model, exps[i].Node.Node, exps[i].AtCycle, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestLadderFootprint holds the ladder to its budget: at the longest span
// the base spacing covers, 8,192 cycles, it is 512 rungs in no more than
// 6 MiB of live heap, one cycle more and the stride doubles instead; and
// rungs share a memory image unless the golden run wrote off-core between
// them.
func TestLadderFootprint(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	const span = rungSpacing * maxRungs
	build := func(span uint64) (*Runner, uint64) {
		probe, err := NewRunner(w.Program, Options{NoCheckpoint: true})
		if err != nil {
			t.Fatal(err)
		}
		if probe.GoldenCycles <= span {
			t.Fatalf("the golden run is %d cycles: no %d-cycle span to cover", probe.GoldenCycles, span)
		}
		r, err := NewRunner(w.Program, Options{InjectAtCycle: probe.GoldenCycles - span})
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r.PrepareCheckpoint()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return r, after.HeapAlloc - min(after.HeapAlloc, before.HeapAlloc)
	}
	r, heap := build(span)
	lad := r.ladder()
	t.Logf("%d rungs every %d cycles: %d KiB live", len(lad.rungs), lad.stride, heap>>10)
	if lad.stride != rungSpacing || len(lad.rungs) != maxRungs {
		t.Errorf("a %d-cycle span has %d rungs every %d cycles, want %d every %d", span, len(lad.rungs), lad.stride, maxRungs, rungSpacing)
	}
	if heap > 6<<20 {
		t.Errorf("the ladder holds %d bytes of heap, budget 6 MiB", heap)
	}
	images := map[*mem.Image]bool{}
	for i, g := range lad.rungs {
		images[g.img] = true
		if i > 0 && (g.img == lad.rungs[i-1].img) != (g.writes == lad.rungs[i-1].writes) {
			t.Errorf("rungs %d and %d: write positions %d and %d, shared image %v", i-1, i, lad.rungs[i-1].writes, g.writes, g.img == lad.rungs[i-1].img)
		}
	}
	if writes := len(r.golden.Writes) - lad.rungs[0].writes; writes == 0 || len(images) > writes+1 {
		t.Errorf("%d distinct memory images over %d golden writes", len(images), writes)
	}
	runtime.KeepAlive(r)

	wide, _ := build(span + 1)
	if lad := wide.ladder(); lad.stride != 2*rungSpacing || len(lad.rungs) != maxRungs/2+1 {
		t.Errorf("a %d-cycle span has %d rungs every %d cycles, want %d every %d", span+1, len(lad.rungs), lad.stride, maxRungs/2+1, 2*rungSpacing)
	}
}

// TestForkAllocatesNothing: on a warm engine, a lane that forks, heals and
// is re-forked at its next activation — several materializations in one
// resolve — allocates nothing: the engine's bus, memory, page buffers and
// comparator are re-pointed at the rung, not rebuilt.
func TestForkAllocatesNothing(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	var regs []NodeInfo
	for _, n := range Nodes(TargetIU) {
		if n.Node.Name == "iu.rf.regs" {
			regs = append(regs, n)
		}
	}
	exps := Expand(SampleNodes(regs, 256, 1), rtl.StuckAt0, rtl.StuckAt1)
	m := r.planBatches(exps)
	defer r.putMemo(m)
	eng, lad := r.getEngine(), r.ladder()
	forks := func() float64 { return engineCounters(t, reg)["engine_snapshot_materializations_total"] }
	teleporting := 0
	for i := range exps {
		l := new(lane)
		if !r.batchLane(l, &exps[i], m.logs[m.netOf[i]]) {
			continue
		}
		before := forks()
		var want, got Result
		r.resolve(eng, lad, l, &want) // the first also warms the engine
		if forks()-before < 3 {
			continue
		}
		teleporting++
		if allocs := testing.AllocsPerRun(5, func() {
			if r.resolve(eng, lad, l, &got); got != want {
				t.Fatalf("%v: resolved %+v, then %+v", l.f, want, got)
			}
		}); allocs != 0 {
			t.Errorf("%v: %v allocations per resolve over %v forks", l.f, allocs, forks()-before)
		}
	}
	if teleporting < 5 {
		t.Errorf("%d lanes of %d were re-forked at a later activation: the sample does not reach the teleport", teleporting, len(exps))
	}
}

// TestForkPointsMatchReference: a universe forked from a fork point — a
// rung's state plus what the golden run changed since, between two rungs or
// past the last one — is the universe the from-reset reference steps to.
// The two campaigns, at instant 0 on two iterations, are faultcampaign's
// `-w intbench -models seu,set -pulse 4 -nodes 300 -seed 2` and
// `-w tblook -target cmem -models seu -nodes 400 -seed 4`, the shapes on
// which forks from full golden states between rungs, with the words they
// differ in taken from the rungs' differences, once changed the bytes. Most
// of their instants lie off a rung, some past the last rung, and the test
// checks that fork points answer both kinds. Under the race detector it
// takes every forkSample-th experiment and every one past the last rung.
func TestForkPointsMatchReference(t *testing.T) {
	for _, tc := range []struct {
		workload string
		target   Target
		models   []rtl.FaultModel
		pulse    uint64
		nodes    int
		seed     int64
	}{
		{"intbench", TargetIU, []rtl.FaultModel{rtl.BitFlip, rtl.SETPulse}, 4, 300, 2},
		{"tblook", TargetCMEM, []rtl.FaultModel{rtl.BitFlip}, 0, 400, 4},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := workloads.Build(tc.workload, workloads.Config{Iterations: 2})
			if err != nil {
				t.Fatal(err)
			}
			prod, ref := enginePair(t, w.Program, Options{PulseCycles: tc.pulse})
			all := Expand(SampleNodes(Nodes(tc.target), tc.nodes, tc.seed), tc.models...)
			ref.ScheduleTransients(all, tc.seed)
			lad := prod.ladder()
			last := lad.rungs[len(lad.rungs)-1].core.Cycle()
			var exps []Experiment
			between, tail := 0, 0
			for i, e := range all {
				if i%forkSample != 0 && e.AtCycle <= last {
					continue
				}
				exps = append(exps, e)
				switch {
				case lad.point(lad.below(e.AtCycle), e.AtCycle) == nil:
				case e.AtCycle > last:
					tail++
				default:
					between++
				}
			}
			want, got := ref.Campaign(exps, 2), prod.Campaign(exps, 2)
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%v %v@%d: got %+v, reference %+v", exps[i].Model, exps[i].Node.Node, exps[i].AtCycle, got[i], want[i])
				}
			}
			t.Logf("%d experiments: %d forked from a point between rungs, %d past the last rung", len(exps), between, tail)
			if between == 0 || tail == 0 {
				t.Errorf("%d instants on a point between rungs and %d past the last rung: the campaign misses a kind", between, tail)
			}
		})
	}
}

// TestForkIsTheGoldenState: materialize at any cycle — on a rung, on a fork
// point, between them, past the last rung — leaves the engine exactly where
// the golden run is at that cycle: every kernel slab, wires included
// (rtl.Kernel.Recurs), the cycle, the instruction and stall counters, the
// memory at every address the golden run writes, and the comparator at the
// golden write index. The engine is forked at every cycle in turn, so each
// fork starts from a core the last one left: forks near and far, both ways.
func TestForkIsTheGoldenState(t *testing.T) {
	p, err := asm.Assemble(difftest.Generate(2, difftest.AllFeatures(200)), mem.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		p      *asm.Program
		frac   float64
		stride uint64
	}{
		{"generated-2", p, 0, 0}, {"generated-2/stride-128", p, 0.3, 128}, {"excerptA", w.Program, 0.5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := NewRunner(tc.p, Options{InjectAtFraction: tc.frac})
			if err != nil {
				t.Fatal(err)
			}
			r.stride = tc.stride
			lad, eng := r.ladder(), r.getEngine()
			addrs := map[uint32]bool{}
			for _, a := range r.golden.Writes {
				addrs[a.Addr&^3] = true
			}
			ref, bus := r.freshCore()
			for ref.Cycles() < lad.start {
				ref.StepCycle()
			}
			var snap rtl.Snapshot
			points := 0
			for ref.Status() == iss.StatusRunning {
				at := ref.Cycles()
				if lad.point(lad.below(at), at) != nil {
					points++
				}
				r.materialize(eng, lad, at)
				c := eng.core
				ref.K.SnapshotInto(&snap)
				switch {
				case c.Cycles() != at || !c.K.Recurs(&snap):
					t.Fatalf("cycle %d: forked kernel state differs from the golden run's", at)
				case c.Icount != ref.Icount || c.OpCounts != ref.OpCounts || c.StallMismatch != ref.StallMismatch ||
					c.StallEmpty != ref.StallEmpty || c.StallDCache != ref.StallDCache || c.StallMulDiv != ref.StallMulDiv ||
					c.StallLoadUse != ref.StallLoadUse || c.StallAnnul != ref.StallAnnul:
					t.Fatalf("cycle %d: forked counters differ from the golden run's", at)
				case eng.cmp.idx != len(bus.Trace.Writes) || eng.cmp.mismatchAt >= 0:
					t.Fatalf("cycle %d: comparator at write %d (mismatch at %d), the golden run at %d", at, eng.cmp.idx, eng.cmp.mismatchAt, len(bus.Trace.Writes))
				}
				for a := range addrs {
					if got, want := c.Bus.Mem.Read32(a), bus.Mem.Read32(a); got != want {
						t.Fatalf("cycle %d: forked memory holds %#x at %#x, the golden run %#x", at, got, a, want)
					}
				}
				ref.StepCycle()
			}
			if points == 0 {
				t.Error("no cycle forked from a fork point")
			}
		})
	}
}
