package leon3_test

import (
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
)

// FuzzSnapshotFork is TestSnapshotForkBitIdentical on generated programs:
// a core snapshotted at any cycle of the run, its memory image with it,
// and restored into a fresh core runs on to exactly what the uninterrupted
// run did — the same off-core writes from the snapshot on, the same cycle
// count and the same status. The snapshotted core keeps running, so the
// frozen image must not see its later writes.
func FuzzSnapshotFork(f *testing.F) {
	// Program seed, snapshot cycle (modulo the run's length + 1: the last
	// value snapshots the finished core, as the second row does on
	// program 1's 1,509 cycles).
	f.Add(int64(1), uint32(0))
	f.Add(int64(1), uint32(1509))
	f.Add(int64(2), uint32(700))
	f.Add(int64(3), uint32(2501))
	f.Add(int64(4), uint32(1<<31))
	f.Fuzz(func(t *testing.T, seed int64, at uint32) {
		const budget = 40_000_000
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		boot := func() (*leon3.Core, *mem.Memory) {
			m := mem.NewMemory()
			m.LoadImage(p.Origin, p.Image)
			return leon3.New(mem.NewBus(m), p.Entry), m
		}

		ref, _ := boot()
		ref.Run(budget)
		cut := uint64(at) % (ref.Cycles() + 1)

		parent, m := boot()
		for parent.Cycles() < cut && parent.Status() == iss.StatusRunning {
			parent.StepCycle()
		}
		snap, img, prefix := parent.Snapshot(), m.Snapshot(), len(parent.Bus.Trace.Writes)
		parent.Run(budget)

		fbus := mem.NewBus(img.Fork())
		fork := leon3.New(fbus, p.Entry)
		if err := fork.Restore(snap); err != nil {
			t.Fatal(err)
		}
		if st := fork.Run(budget); st != ref.Status() || fork.Cycles() != ref.Cycles() {
			t.Fatalf("seed %d, fork at cycle %d: %v after %d cycles, the uninterrupted run %v after %d",
				seed, cut, st, fork.Cycles(), ref.Status(), ref.Cycles())
		}
		if suffix := ref.Bus.Trace.Writes[prefix:]; !slices.Equal(fbus.Trace.Writes, suffix) {
			t.Fatalf("seed %d, fork at cycle %d: %d writes after the fork, the uninterrupted run %d from there (first difference at %d)",
				seed, cut, len(fbus.Trace.Writes), len(suffix), fbus.Trace.Divergence(&mem.Trace{Writes: suffix}))
		}
	})
}
