package fault

import (
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// sameSlabs reports whether two cores hold the same word in every signal,
// committed and pending, and the same array contents. scratch is reused.
func sameSlabs(a, b *leon3.Core, scratch *leon3.Snapshot) (string, bool) {
	sa, sb := a.K.Signals(), b.K.Signals()
	for i, s := range sa {
		if s.IsReg() && (s.Get() != sb[i].Get() || s.Next() != sb[i].Next()) {
			return fmt.Sprintf("%s: %#x (pending %#x) against %#x (pending %#x)", s.Name(), s.Get(), s.Next(), sb[i].Get(), sb[i].Next()), false
		}
	}
	a.SnapshotInto(scratch)
	return "array contents", b.StateEquals(scratch)
}

// onlySeed reports whether core differs from the snapshot in one state word,
// the seed's (index word, as rtl.Kernel.Diff numbers it), by the seed's bit.
func onlySeed(core *leon3.Core, s *leon3.Snapshot, seed rtl.Node, word int32) bool {
	var diff [2]rtl.WordDiff
	n, ok := core.Diff(s, diff[:])
	return ok && n == 1 && diff[0] == rtl.WordDiff{Index: word, Mask: 1 << seed.Bit}
}

// stateIndex returns the index rtl.Kernel.Diff gives the state word of
// node n, -1 for a wire's.
func stateIndex(n rtl.Node) int32 {
	d := design()
	id := d.ids[rtl.WitnessNet{Name: n.Name, Word: n.Word}]
	for i, net := range d.state {
		if net == id {
			return int32(i)
		}
	}
	return -1
}

// TestUpsetLaneMatchesSteppedUniverse is the oracle of the register write
// side, and shares none of its mechanism: no tag, no witness, no log on the
// oracle's side. For every IU and CMEM register the witness can watch, a bit
// that rotates with the net and sixteen instants spread over the continuation,
// a golden core and a core with the bit really flipped at the instant are
// stepped in lockstep, and the lane batchLane builds from the net's logged
// edges is held to them. Up to the lane's activation — to program exit for a
// lane that is free — the flipped core must equal the golden one but for the
// seed bit at every boundary: an activation later than the first cycle
// anything else differs would fork a universe that has already diverged, and
// one later than the cycle the upset died would flip a bit that is clean
// (earlier than either is allowed, and costs a fork). A free lane's universe
// may instead re-equal the golden one outright — the upset replaced unread,
// dead as the lane says — and either way ends as the golden run ends. At the
// activation the lane's own arming, applied to the golden core, must give
// the flipped core's slabs word for word, committed and pending: an upset
// carried over an edge sits in both.
func TestUpsetLaneMatchesSteppedUniverse(t *testing.T) {
	const instants = 16
	progs := map[string]*asm.Program{}
	for _, seed := range []int64{3, 8, 12} {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		progs[fmt.Sprintf("generated-%d", seed)] = p
	}
	for _, name := range []string{"rspeed", "puwmod"} {
		w, err := workloads.Build(name, workloads.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = w.Program
	}
	for name, p := range progs {
		t.Run(name, func(t *testing.T) {
			r, err := NewRunner(p, Options{InjectAtFraction: 0.2})
			if err != nil {
				t.Skipf("no golden run: %v", err)
			}
			lad := r.ladder()
			gold, flipped := r.getEngine(), r.getEngine()
			widthOf := map[string]int{}
			for _, s := range gold.core.K.Signals() {
				widthOf[s.Name()] = s.Width()
			}
			var nets []rtl.WitnessNet
			var width []int
			for _, n := range allNets(r) {
				if gold.core.K.EdgesWatchable(rtl.Node{Name: n.Name}) {
					nets, width = append(nets, n), append(width, widthOf[n.Name])
				}
			}
			if len(nets) < 50 {
				t.Fatalf("%d watchable registers", len(nets))
			}
			extras := make([]logExtra, len(nets))
			for i := range extras {
				extras[i] = logEdges
			}
			logs := r.logWalk(nets, extras)
			if logs == nil {
				t.Fatal("the logging walk's witness did not arm")
			}
			start, span := lad.start, r.GoldenCycles-lad.start
			scratch := gold.core.Snapshot()
			free, dead, fired, carried := 0, 0, 0, 0
			for i, n := range nets {
				for k := uint64(0); k < instants; k++ {
					at := start + (span*k/instants+37*uint64(i))%span
					node := rtl.Node{Name: n.Name, Bit: (i + int(k)) % width[i]}
					word := stateIndex(node)
					var l lane
					act := r.batchLane(&l, &Experiment{Node: NodeInfo{Node: node}, Model: rtl.BitFlip, AtCycle: at}, logs[i])
					r.materialize(gold, lad, at)
					r.materialize(flipped, lad, at)
					if err := flipped.core.K.FlipBit(node); err != nil {
						t.Fatal(err)
					}
					horizon := r.GoldenCycles
					if act {
						horizon = l.activateAt
						fired++
						if horizon > at {
							carried++
						}
					} else {
						free++
					}
					healed := false
					for {
						gold.core.SnapshotInto(scratch)
						now := gold.core.Cycles()
						if !onlySeed(flipped.core, scratch, node, word) || flipped.cmp != gold.cmp {
							if healed = !act && flipped.core.StateEquals(scratch) && flipped.cmp == gold.cmp; healed {
								dead++
								break
							}
							t.Fatalf("%v@%d: at cycle %d the stepped universe differs from the golden one in more than its seed bit; the lane says activated=%v at %d",
								node, at, now, act, l.activateAt)
						}
						if now >= horizon || gold.core.Status() != iss.StatusRunning {
							break
						}
						gold.core.StepCycle()
						flipped.core.StepCycle()
					}
					switch {
					case healed:
					case act:
						// The lane's arming on the golden core is the stepped universe.
						if err := l.arm(gold.core); err != nil {
							t.Fatal(err)
						}
						if what, ok := sameSlabs(gold.core, flipped.core, scratch); !ok {
							t.Fatalf("%v@%d: armed at %d the lane's universe differs from the stepped one in %s", node, at, l.activateAt, what)
						}
					default:
						var res Result
						r.classify(&res, flipped.core, flipped.core.Bus, &flipped.cmp, at)
						if flipped.core.Status() != gold.core.Status() || res.Outcome != OutcomeNoEffect || res.Cycles != r.GoldenCycles {
							t.Fatalf("%v@%d: the lane is free, the stepped universe ends %v: %+v", node, at, flipped.core.Status(), res)
						}
					}
				}
			}
			if dead == 0 || free == dead || carried == 0 || fired == carried {
				t.Fatalf("%d lanes free (%d of them replaced unread), %d fired (%d after an edge carried the upset): the sample does not reach every answer",
					free, dead, fired, carried)
			}
			t.Logf("%d registers x %d instants over cycles [%d,%d): %d lanes free (%d replaced unread, %d carried to exit), %d fired (%d after an edge carried the upset)",
				len(nets), instants, start, r.GoldenCycles, free, dead, free-dead, fired, carried)
		})
	}
}
