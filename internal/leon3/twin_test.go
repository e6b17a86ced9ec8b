package leon3_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestTwinsLockstep runs every Table-1 workload and four generated
// programs on two cores cycle by cycle. Nothing is armed on the first, so
// the kernel runs the pipeline's clean twin; the second carries a witness
// on iu.ra.raw, a register no stage reads, so it runs the probed
// processes and computes with every probe in place but none firing. At
// every cycle both must hold the same committed and pending register and
// wire words, the same array words, bus outputs, status and counters, and
// the witness must have recorded nothing.
func TestTwinsLockstep(t *testing.T) {
	type program struct {
		name string
		p    *asm.Program
	}
	var programs []program
	for _, name := range workloads.Table1Names() {
		w, err := workloads.Build(name, workloads.Config{Iterations: 2})
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, w.Program})
	}
	for seed := int64(1); seed <= 4; seed++ {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		programs = append(programs, program{fmt.Sprintf("generated-%d", seed), p})
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			fresh := func() *leon3.Core {
				m := mem.NewMemory()
				m.LoadImage(pr.p.Origin, pr.p.Image)
				return leon3.New(mem.NewBus(m), pr.p.Entry)
			}
			clean, probed := fresh(), fresh()
			w, err := probed.K.StartWitness([]rtl.WitnessNet{{Name: "iu.ra.raw"}})
			if err != nil {
				t.Fatal(err)
			}
			defer w.Stop()
			var a, b []uint64
			var evs []rtl.WitnessEvent
			for clean.Status() == iss.StatusRunning && clean.Cycles() < 2_000_000 {
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
			if clean.Status() != iss.StatusExited {
				t.Fatalf("ends %v after %d cycles", clean.Status(), clean.Cycles())
			}
		})
	}
}

// stateWords appends every committed and pending signal word and every
// array word of c, read raw.
func stateWords(c *leon3.Core, dst []uint64) []uint64 {
	for _, s := range c.K.Signals() {
		dst = append(dst, s.Raw(), s.Next())
	}
	for _, a := range c.K.Arrays() {
		for i := range a.Len() {
			dst = append(dst, a.ReadRaw(i))
		}
	}
	return dst
}

// counters is what a core reports besides its state words: status, trap,
// instruction counts and stall diagnostics.
func counters(c *leon3.Core) any {
	return [...]any{c.Status(), c.TrapTaken(), c.Icount, c.OpCounts, c.StallMismatch, c.StallEmpty,
		c.StallDCache, c.StallMulDiv, c.StallLoadUse, c.StallAnnul}
}

func firstDiff(a, b []uint64) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return -1
}
