package leon3

import (
	"testing"

	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/workloads"
)

// TestSnapshotForkBitIdentical runs a reference core to completion, then
// forks a second core from a mid-run snapshot (kernel state plus a
// copy-on-write memory image) and checks that the continuation is
// bit-identical: same status, cycle count, instruction counters, off-core
// write stream and register file.
func TestSnapshotForkBitIdentical(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Program

	// Reference run, uninterrupted.
	mr := mem.NewMemory()
	mr.LoadImage(p.Origin, p.Image)
	ref := New(mem.NewBus(mr), p.Entry)
	if st := ref.Run(10_000_000); st != iss.StatusExited {
		t.Fatalf("reference run: %v", st)
	}

	for _, frac := range []float64{0.1, 0.5, 0.9} {
		at := uint64(frac * float64(ref.Cycles()))
		// Warm-up run to the snapshot point.
		mw := mem.NewMemory()
		mw.LoadImage(p.Origin, p.Image)
		wbus := mem.NewBus(mw)
		warm := New(wbus, p.Entry)
		for warm.Cycles() < at && warm.Status() == iss.StatusRunning {
			warm.StepCycle()
		}
		snap := warm.Snapshot()
		img := mw.Snapshot()
		prefix := len(wbus.Trace.Writes)

		// Keep the warm core running past the snapshot to prove the frozen
		// image is immune to the parent's later writes.
		warm.Run(10_000_000)

		// Fork and run to completion.
		fbus := mem.NewBus(img.Fork())
		fork := New(fbus, p.Entry)
		if err := fork.Restore(snap); err != nil {
			t.Fatalf("fork@%d: %v", at, err)
		}
		if fork.Cycles() != at {
			t.Fatalf("fork@%d: restored cycle count %d", at, fork.Cycles())
		}
		if st := fork.Run(10_000_000); st != ref.Status() {
			t.Fatalf("fork@%d: status %v, reference %v", at, st, ref.Status())
		}
		if fork.Cycles() != ref.Cycles() {
			t.Errorf("fork@%d: cycles %d, reference %d", at, fork.Cycles(), ref.Cycles())
		}
		if fork.Icount != ref.Icount {
			t.Errorf("fork@%d: icount %d, reference %d", at, fork.Icount, ref.Icount)
		}
		if fork.OpCounts != ref.OpCounts {
			t.Errorf("fork@%d: op histogram diverged", at)
		}

		// The forked trace holds only post-fork writes; it must equal the
		// reference suffix exactly, bit for bit.
		suffix := ref.Bus.Trace.Writes[prefix:]
		if len(fbus.Trace.Writes) != len(suffix) {
			t.Fatalf("fork@%d: %d post-fork writes, reference suffix %d",
				at, len(fbus.Trace.Writes), len(suffix))
		}
		for i, a := range fbus.Trace.Writes {
			if a != suffix[i] {
				t.Fatalf("fork@%d: write %d = %v, reference %v", at, prefix+i, a, suffix[i])
			}
		}
		if fbus.ExitCode() != ref.Bus.ExitCode() {
			t.Errorf("fork@%d: exit code %d, reference %d", at, fbus.ExitCode(), ref.Bus.ExitCode())
		}
		for i := 0; i < physRegCnt; i++ {
			if fork.RegPhys(i) != ref.RegPhys(i) {
				t.Errorf("fork@%d: phys reg %d = %08x, reference %08x",
					at, i, fork.RegPhys(i), ref.RegPhys(i))
			}
		}
	}
}

// TestRestoreRejectsForeignSnapshot checks the structural guards.
func TestRestoreRejectsForeignSnapshot(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	c := New(mem.NewBus(mem.NewMemory()), w.Program.Entry)
	snap := c.Snapshot()
	other := New(mem.NewBus(mem.NewMemory()), w.Program.Entry+8)
	if err := other.Restore(snap); err == nil {
		t.Fatal("restore into a different-entry core succeeded")
	}
}

// TestCycleCounterCarriesNoState pins the property the campaign engine's
// time-shifted heal and recurrence proofs stand on (rtl.Kernel.StateEquals,
// fault.Runner.resolve): the kernel's cycle counter labels off-core
// accesses (Access.Seq) and feeds nothing else. A fork of a mid-run
// snapshot whose counter was rebased first must run to exit in the same
// number of cycles and write the same Addr/Size/Data stream as the
// uninterrupted run. A timer, or any process that reads K.Now() into the
// datapath, fails here instead of silently breaking byte identity.
func TestCycleCounterCarriesNoState(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := w.Program
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	bus := mem.NewBus(m)
	ref := New(bus, p.Entry)
	at := uint64(700)
	for ref.Cycles() < at && ref.Status() == iss.StatusRunning {
		ref.StepCycle()
	}
	snap, img, prefix := ref.Snapshot(), m.Snapshot(), len(bus.Trace.Writes)
	if st := ref.Run(10_000_000); st != iss.StatusExited || prefix == 0 || prefix == len(bus.Trace.Writes) {
		t.Fatalf("reference run: %v, %d of %d writes before cycle %d", st, prefix, len(bus.Trace.Writes), at)
	}

	const offset = 1_000_003
	fbus := mem.NewBus(img.Fork())
	fork := New(fbus, p.Entry)
	if err := fork.Restore(snap); err != nil {
		t.Fatal(err)
	}
	fork.K.SetNow(at + offset)
	if st := fork.Run(20_000_000); st != iss.StatusExited {
		t.Fatalf("rebased fork: %v", st)
	}
	if got, want := fork.Cycles()-(at+offset), ref.Cycles()-at; got != want {
		t.Errorf("rebased fork ran %d cycles to exit, the uninterrupted run %d", got, want)
	}
	suffix := bus.Trace.Writes[prefix:]
	if len(fbus.Trace.Writes) != len(suffix) {
		t.Fatalf("rebased fork made %d writes, the uninterrupted run %d", len(fbus.Trace.Writes), len(suffix))
	}
	for i, a := range fbus.Trace.Writes {
		if g := suffix[i]; a.Addr != g.Addr || a.Size != g.Size || a.Data != g.Data {
			t.Fatalf("write %d = %v, uninterrupted run %v", prefix+i, a, g)
		}
		if g := suffix[i]; a.Seq-g.Seq != offset {
			t.Fatalf("write %d: Seq %d vs %d, want the rebase offset apart", prefix+i, a.Seq, g.Seq)
		}
	}
	if fbus.ExitCode() != bus.ExitCode() {
		t.Errorf("exit code %d, uninterrupted run %d", fbus.ExitCode(), bus.ExitCode())
	}
}
