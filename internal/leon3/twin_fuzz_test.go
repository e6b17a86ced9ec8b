package leon3_test

import (
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
)

// FuzzTwinLockstep is TestTwinsLockstep on generated programs: a core
// that runs the clean twin (nothing armed) and one that runs the probed
// stages (a witness on iu.ra.raw, which no stage reads) hold the same
// state words, bus outputs, status and counters at every cycle. The clean
// twin indexes the slabs at generated constants, so a wrong slot or mask
// shows as a difference on the first cycle that touches the net. The
// input picks the program's size and features, and a single-event upset
// both cores take at one cycle (FlipCarried arms nothing, so the clean
// core stays clean): transient universes run the twin after their flip,
// on words no fault-free run holds.
func FuzzTwinLockstep(f *testing.F) {
	// Program seed, size, feature bits (loops, memory, branches, muldiv,
	// windows), flip cycle (0: no flip), flipped net and bit.
	f.Add(int64(1), uint8(200), uint8(0x1f), uint32(0), uint16(0), uint8(0))
	f.Add(int64(2), uint8(120), uint8(0x0a), uint32(300), uint16(17), uint8(3))
	f.Add(int64(3), uint8(60), uint8(0x15), uint32(900), uint16(90), uint8(31))
	f.Add(int64(5), uint8(255), uint8(0x1f), uint32(1500), uint16(60), uint8(63))
	f.Fuzz(func(t *testing.T, seed int64, insts, features uint8, flipAt uint32, node uint16, bit uint8) {
		const budget = 20_000 // cycles; a fault-free program ends in under 4,100
		o := difftest.GenOptions{Insts: 10 + int(insts), Loops: features&1 != 0, Memory: features&2 != 0,
			Branches: features&4 != 0, MulDiv: features&8 != 0, Windows: features&16 != 0}
		p, err := asm.Assemble(difftest.Generate(seed, o), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		fresh := func() *leon3.Core {
			m := mem.NewMemory()
			m.LoadImage(p.Origin, p.Image)
			return leon3.New(mem.NewBus(m), p.Entry)
		}
		clean, probed := fresh(), fresh()
		w, err := probed.K.StartWitness([]rtl.WitnessNet{{Name: "iu.ra.raw"}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Stop()
		sigs := clean.K.Signals()
		s := sigs[int(node)%len(sigs)]
		upset := rtl.Node{Name: s.Name(), Bit: int(bit) % s.Width()}
		var a, b []uint64
		var evs []rtl.WitnessEvent
		for clean.Status() == iss.StatusRunning && clean.Cycles() < budget {
			if flipAt != 0 && clean.Cycles() == uint64(flipAt) {
				for _, c := range []*leon3.Core{clean, probed} {
					if err := c.K.FlipCarried(upset); err != nil {
						t.Fatal(err)
					}
				}
			}
			clean.StepCycle()
			probed.StepCycle()
			if evs = w.Drain(evs[:0]); len(evs) != 0 {
				t.Fatalf("cycle %d: iu.ra.raw was read: %v", probed.Cycles(), evs)
			}
			a, b = stateWords(clean, a[:0]), stateWords(probed, b[:0])
			if i := firstDiff(a, b); i >= 0 {
				t.Fatalf("cycle %d: state word %d: clean %#x, probed %#x", clean.Cycles(), i, a[i], b[i])
			}
			if d := clean.Bus.Trace.Divergence(&probed.Bus.Trace); d != -1 ||
				len(clean.Bus.Trace.Writes) != len(probed.Bus.Trace.Writes) ||
				!slices.Equal(clean.Bus.Out(), probed.Bus.Out()) {
				t.Fatalf("cycle %d: bus outputs differ (first write %d)", clean.Cycles(), d)
			}
			if cs, ps := counters(clean), counters(probed); cs != ps {
				t.Fatalf("cycle %d: status and counters clean %v, probed %v", clean.Cycles(), cs, ps)
			}
		}
		if flipAt == 0 && clean.Status() != iss.StatusExited {
			t.Fatalf("ends %v after %d cycles", clean.Status(), clean.Cycles())
		}
	})
}
