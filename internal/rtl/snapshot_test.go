package rtl

import "testing"

// build constructs a small deterministic design: one register, one wire,
// one array, and a process that accumulates the register into the array.
func build() (*Kernel, *Signal, *Signal, *MemArray) {
	k := NewKernel()
	r := k.Reg("t.r", 8, 0)
	w := k.Wire("t.w", 8, 0)
	a := k.Array("t.a", 8, 4, 0)
	k.Comb(func() {
		w.Set(r.Get() + 1)
		r.SetNext(w.Get())
		a.Write(int(k.Now())&3, a.Read(int(k.Now())&3)+r.Get())
	})
	return k, r, w, a
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	k1, _, _, _ := build()
	for i := 0; i < 7; i++ {
		k1.Cycle()
	}
	snap := k1.Snapshot()

	// The source kernel keeps running; the snapshot must be unaffected.
	for i := 0; i < 5; i++ {
		k1.Cycle()
	}

	k2, _, _, _ := build()
	if err := k2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if k2.Now() != 7 {
		t.Fatalf("restored cycle = %d", k2.Now())
	}

	// Both kernels replayed from the same point must stay in lockstep.
	k3, _, _, _ := build()
	if err := k3.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		k2.Cycle()
		k3.Cycle()
	}
	for i, s := range k2.Signals() {
		if s.Get() != k3.Signals()[i].Get() {
			t.Errorf("signal %s diverged: %x vs %x", s.Name(), s.Get(), k3.Signals()[i].Get())
		}
	}
	for i, a := range k2.Arrays() {
		for w := 0; w < a.Len(); w++ {
			if a.Read(w) != k3.Arrays()[i].Read(w) {
				t.Errorf("array %s[%d] diverged", a.Name(), w)
			}
		}
	}
}

func TestRestoreClearsFaults(t *testing.T) {
	k, r, _, _ := build()
	k.Cycle()
	snap := k.Snapshot()
	if err := k.Inject(Fault{Node: Node{Name: "t.r", Bit: 0}, Model: StuckAt1}); err != nil {
		t.Fatal(err)
	}
	if err := k.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if len(k.Faults()) != 0 {
		t.Error("restore kept armed faults")
	}
	*r.curp = 0
	if r.Get() != 0 {
		t.Error("restore kept fault forcing")
	}
}

func TestRestoreRejectsShapeMismatch(t *testing.T) {
	k1, _, _, _ := build()
	snap := k1.Snapshot()

	k2 := NewKernel()
	k2.Reg("other", 8, 0)
	if err := k2.Restore(snap); err == nil {
		t.Error("restore into a different design succeeded")
	}

	k3 := NewKernel()
	k3.Reg("t.r", 8, 0)
	k3.Wire("t.w", 8, 0)
	k3.Array("t.a", 8, 2, 0) // wrong word count
	if err := k3.Restore(snap); err == nil {
		t.Error("restore into a resized array succeeded")
	}
}

// TestStateComparisons pins what the two state comparisons look at.
// StateEquals: registers and arrays, not the cycle counter, not the wires.
// Recurs: the wires too. Neither equals a snapshot of another shape, and
// SnapshotInto reuses its buffer.
func TestStateComparisons(t *testing.T) {
	k, r, w, a := build()
	for i := 0; i < 3; i++ {
		k.Cycle()
	}
	var snap Snapshot
	k.SnapshotInto(&snap)
	if !k.StateEquals(&snap) || !k.Recurs(&snap) {
		t.Fatal("kernel differs from its own snapshot")
	}
	k.SetNow(k.Now() + 1000)
	if snap.Cycle() != 3 || !k.StateEquals(&snap) || !k.Recurs(&snap) {
		t.Error("the cycle counter is part of a comparison")
	}
	w.Set(w.Get() ^ 1)
	if !k.StateEquals(&snap) {
		t.Error("StateEquals looks at a wire")
	}
	if k.Recurs(&snap) {
		t.Error("Recurs misses a wire difference")
	}
	w.Set(w.Get() ^ 1)
	*r.curp ^= 1
	if k.StateEquals(&snap) || k.Recurs(&snap) {
		t.Error("register difference missed")
	}
	*r.curp ^= 1
	a.Write(2, a.Read(2)^1)
	if k.StateEquals(&snap) || k.Recurs(&snap) {
		t.Error("array difference missed")
	}

	regs := &snap.regs[0]
	k.SnapshotInto(&snap)
	if &snap.regs[0] != regs || snap.Cycle() != k.Now() || !k.Recurs(&snap) {
		t.Error("SnapshotInto did not re-save into the same buffer")
	}

	// All-zero kernels of other shapes: equal slab values, unequal lengths.
	other := NewKernel()
	other.Reg("t.r", 8, 0)
	other.Reg("t.r2", 8, 0)
	other.Wire("t.w", 8, 0)
	other.Array("t.a", 8, 4, 0)
	fresh, _, _, _ := build()
	if zero := fresh.Snapshot(); other.StateEquals(zero) || other.Recurs(zero) {
		t.Error("a kernel with one more register equals the snapshot")
	}
	wider := NewKernel()
	wider.Reg("t.r", 8, 0)
	wider.Wire("t.w", 8, 0)
	wider.Wire("t.w2", 8, 0)
	wider.Array("t.a", 8, 4, 0)
	if wider.Recurs(fresh.Snapshot()) {
		t.Error("a kernel with one more wire recurs in the snapshot")
	}
}

// TestDiffAndXorWord: Diff lists the words StateEquals would find unequal —
// registers by declaration order, then array words after them, across its
// 64-word chunks — and nothing of the wires; it says so when dst is too short
// or the shape differs. XorWord of what Diff listed gives the snapshot's
// state back, a register in both its slots.
func TestDiffAndXorWord(t *testing.T) {
	k := NewKernel()
	k.Reg("t.r0", 8, 0)
	w := k.Wire("t.w", 8, 0)
	r1 := k.Reg("t.r1", 16, 0)
	k.Array("t.a", 32, 4, 0)
	b := k.Array("t.b", 32, 100, 0)
	var snap Snapshot
	k.SnapshotInto(&snap)
	var dst [3]WordDiff
	if n, ok := k.Diff(&snap, dst[:]); !ok || n != 0 {
		t.Fatalf("a kernel against its own snapshot: %d words, ok %v", n, ok)
	}
	w.Set(7)
	*r1.curp ^= 0x105
	*r1.nxtp ^= 0x105
	b.Write(70, 1<<20)
	n, ok := k.Diff(&snap, dst[:])
	want := []WordDiff{{Index: 1, Mask: 0x105}, {Index: 2 + 4 + 70, Mask: 1 << 20}}
	if !ok || n != 2 || dst[0] != want[0] || dst[1] != want[1] {
		t.Fatalf("Diff = %v (%d words, ok %v), want %v", dst[:n], n, ok, want)
	}
	if n, ok := k.Diff(&snap, dst[:1]); ok || n != 1 {
		t.Errorf("two words against room for one: %d words, ok %v", n, ok)
	}
	for _, d := range want {
		k.XorWord(d.Index, d.Mask)
	}
	if n, ok := k.Diff(&snap, dst[:]); !ok || n != 0 || !k.StateEquals(&snap) || r1.Next() != r1.Get() {
		t.Errorf("after XorWord: %d words differ, pending %#x, committed %#x", n, r1.Next(), r1.Get())
	}
	other, _, _, _ := build()
	if _, ok := other.Diff(&snap, dst[:]); ok {
		t.Error("a kernel of another shape diffed against the snapshot")
	}
}

// TestSnapshotsShareOneSlab: the snapshots Snapshots hands out are filled
// in place — no allocation, none overlapping its neighbour — and restore
// like any other.
func TestSnapshotsShareOneSlab(t *testing.T) {
	k, _, _, _ := build()
	snaps := k.Snapshots(3)
	for i := range snaps {
		k.Cycle()
		s := &snaps[i]
		if allocs := testing.AllocsPerRun(3, func() { k.SnapshotInto(s) }); allocs != 0 {
			t.Errorf("snapshot %d: %v allocations filling it", i, allocs)
		}
	}
	for i := range snaps {
		want, _, _, _ := build()
		for c := 0; c <= i; c++ {
			want.Cycle()
		}
		if snaps[i].Cycle() != uint64(i+1) || !want.Recurs(&snaps[i]) {
			t.Errorf("snapshot %d is not the state after %d cycles: a neighbour overwrote it", i, i+1)
		}
		k2, _, _, _ := build()
		if err := k2.Restore(&snaps[i]); err != nil {
			t.Fatal(err)
		}
		k2.Cycle()
		want.Cycle()
		if !k2.Recurs(want.Snapshot()) {
			t.Errorf("snapshot %d: a kernel restored from it diverges from one that ran there", i)
		}
	}
}
