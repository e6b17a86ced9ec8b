package leon3

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// freshCore builds a core over a private copy of p's memory image.
func freshCore(p *asm.Program) *Core {
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	return New(mem.NewBus(m), p.Entry)
}

// xorshift is the poison source of this file's tests: a fixed
// pseudo-random sequence.
type xorshift uint64

func (x *xorshift) next() uint64 {
	*x ^= *x << 13
	*x ^= *x >> 7
	*x ^= *x << 17
	return uint64(*x)
}

// TestWiresCarryNoState poisons every wire of a running core with
// pseudo-random garbage between clock cycles and checks that the run
// stays bit-identical to an unmolested reference: same per-cycle
// committed state (sampled periodically), same off-core write stream,
// same final status and instruction counters. A pass dynamically
// enforces the drive-before-read discipline the design claims for its
// wires — the property that lets rtl.Kernel.StateEquals (the batched
// campaign engine's reconvergence check) ignore the wire slabs
// entirely.
func TestWiresCarryNoState(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Program

	ref, poisoned := freshCore(p), freshCore(p)

	var wires []*rtl.Signal
	for _, s := range poisoned.K.Signals() {
		if !s.IsReg() {
			wires = append(wires, s)
		}
	}
	if len(wires) == 0 {
		t.Fatal("design declares no wires")
	}

	rng := xorshift(0x9e3779b97f4a7c15)

	const budget = 10_000_000
	for cyc := uint64(0); cyc < budget; cyc++ {
		if ref.Status() != iss.StatusRunning && poisoned.Status() != iss.StatusRunning {
			break
		}
		for _, s := range wires {
			s.Set(rng.next())
		}
		ps := poisoned.StepCycle()
		rs := ref.StepCycle()
		if ps != rs {
			t.Fatalf("cycle %d: status diverged: poisoned %v, reference %v", cyc, ps, rs)
		}
		if cyc%512 == 511 && !poisoned.StateEquals(ref.Snapshot()) {
			t.Fatalf("cycle %d: committed state diverged under wire poisoning", cyc)
		}
	}

	if ref.Status() != iss.StatusExited {
		t.Fatalf("reference did not exit: %v", ref.Status())
	}
	if poisoned.Icount != ref.Icount {
		t.Errorf("icount diverged: poisoned %d, reference %d", poisoned.Icount, ref.Icount)
	}
	if d := poisoned.Bus.Trace.Divergence(&ref.Bus.Trace); d != -1 {
		t.Errorf("off-core traces diverge at write %d", d)
	}
	if !poisoned.StateEquals(ref.Snapshot()) {
		t.Error("final committed state diverged under wire poisoning")
	}
}

// TestUnreadArrayWordsCarryNoState is the memory-array analogue of the
// wire test, and the soundness premise of batching array-word upsets
// (DESIGN.md §10): an array word reaches the design only through
// MemArray.Read and changes only through MemArray.Write, so garbage in a
// word that the fault-free run overwrites — or never touches — before
// reading it is invisible. A witnessed clean pass sorts the words of the
// register file and of the cache data arrays by their first access after
// an early instant (while the caches still fill, so both fates occur); a
// second core then has every write-first or untouched word poisoned at
// that instant and must run in lockstep with a clean
// reference to program exit: same status every cycle, same off-core
// write stream and counters, same registers and same array contents
// everywhere except the untouched words themselves.
func TestUnreadArrayWordsCarryNoState(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Program

	array := func(c *Core, name string) *rtl.MemArray {
		for _, a := range c.K.Arrays() {
			if a.Name() == name {
				return a
			}
		}
		t.Fatalf("no array %s", name)
		return nil
	}
	probe := freshCore(p)
	if st := probe.Run(10_000_000); st != iss.StatusExited {
		t.Fatalf("clean run did not exit: %v", st)
	}
	at := probe.Cycles() / 10

	for _, name := range []string{"iu.rf.regs", "cmem.dc.data", "cmem.ic.data"} {
		t.Run(name, func(t *testing.T) {
			// Pass 1: classify every word by its first access from `at` on.
			pass := freshCore(p)
			for pass.Cycles() < at {
				pass.StepCycle()
			}
			n := array(pass, name).Len()
			nets := make([]rtl.WitnessNet, n)
			for i := range nets {
				nets[i] = rtl.WitnessNet{Name: name, Word: i}
			}
			wit, err := pass.K.StartWitness(nets)
			if err != nil {
				t.Fatal(err)
			}
			const (
				untouched = iota
				writtenFirst
				readFirst
			)
			fate := make([]int, n)
			var evs []rtl.WitnessEvent
			for pass.Status() == iss.StatusRunning {
				pass.StepCycle()
				evs = wit.Drain(evs[:0])
				for _, e := range evs {
					if fate[e.Net] == untouched {
						// A drained net was written first or read.
						fate[e.Net] = readFirst
						if e.Acc.WriteFirst {
							fate[e.Net] = writtenFirst
						}
					}
				}
			}
			wit.Stop()
			var counts [3]int
			for _, f := range fate {
				counts[f]++
			}
			t.Logf("from cycle %d of %d: %d words untouched, %d written first, %d read first",
				at, pass.Cycles(), counts[untouched], counts[writtenFirst], counts[readFirst])
			if counts[writtenFirst] == 0 || counts[readFirst] == 0 {
				t.Fatal("the workload does not exercise both fates; the test would be vacuous")
			}

			// Pass 2: poison every word that is not read first.
			ref, poisoned := freshCore(p), freshCore(p)
			for ref.Cycles() < at {
				ref.StepCycle()
				poisoned.StepCycle()
			}
			parr := array(poisoned, name)
			rng := xorshift(0x9e3779b97f4a7c15)
			for i, f := range fate {
				if f != readFirst {
					parr.Write(i, parr.Read(i)^(rng.next()|1))
				}
			}
			for ref.Status() == iss.StatusRunning || poisoned.Status() == iss.StatusRunning {
				if ps, rs := poisoned.StepCycle(), ref.StepCycle(); ps != rs {
					t.Fatalf("cycle %d: status diverged: poisoned %v, reference %v", ref.Cycles(), ps, rs)
				}
			}
			if poisoned.Cycles() != ref.Cycles() || poisoned.Icount != ref.Icount {
				t.Errorf("run length diverged: poisoned %d cycles / %d inst, reference %d / %d",
					poisoned.Cycles(), poisoned.Icount, ref.Cycles(), ref.Icount)
			}
			if d := poisoned.Bus.Trace.Divergence(&ref.Bus.Trace); d != -1 {
				t.Errorf("off-core traces diverge at write %d", d)
			}
			rs := ref.K.Signals()
			for i, s := range poisoned.K.Signals() {
				if s.IsReg() && s.Get() != rs[i].Get() {
					t.Errorf("register %s diverged: poisoned %#x, reference %#x", s.Name(), s.Get(), rs[i].Get())
				}
			}
			ra := ref.K.Arrays()
			for ai, a := range poisoned.K.Arrays() {
				for i := 0; i < a.Len(); i++ {
					same := a.Read(i) == ra[ai].Read(i)
					if a.Name() == name && fate[i] == untouched {
						if same {
							t.Errorf("%s[%d]: the poison vanished from a word nothing wrote", name, i)
						}
					} else if !same {
						t.Errorf("%s[%d] diverged: poisoned %#x, reference %#x", a.Name(), i, a.Read(i), ra[ai].Read(i))
					}
				}
			}
		})
	}
}
