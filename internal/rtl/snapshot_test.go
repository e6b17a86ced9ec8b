package rtl

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

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

// TestTouchedWordsMatchFullSlab holds RestoreNear, DiffNear and ApplyDelta
// to the full-slab Restore and Diff. A golden kernel runs ticks of random
// writes and is frozen at each; every fourth tick is a rung. Inside each
// rung interval a word is written and later written back to its rung
// value: it differs at the ticks between the two rungs and at neither rung.
// near between two ticks is what the golden kernel wrote between them — it
// is restored onto its own snapshot at every tick, and its Touched read
// there. An engine kernel then hops between random ticks, forward and back,
// from rungs and from ticks between them, and between hops it is written,
// flipped (FlipBit, FlipCarried) and XORed (XorWord) at random, a word
// written and written back among them. At every hop its DiffNear against
// the target, with room for every word and for fewer, must equal a full
// Diff, and after RestoreNear it must hold exactly what a full Restore
// gives. Now and then it hops to the rung below instead and takes the
// tick's AppendDelta, frozen on a golden kernel restored at that rung: it
// must hold the tick's state, and go on hopping from the rung.
//
// Now and then a witness is armed over a word and stopped: tracking must
// outlive it. A Write, FlipBit, FlipCarried, XorWord or ApplyDelta that
// does not mark its word fails it, as does a witness's Stop that turns
// Write's slow path off, and so does near built from the differences
// between consecutive rungs instead of the words written: from a tick
// between two rungs it misses the written-back word.
func TestTouchedWordsMatchFullSlab(t *testing.T) {
	const ticks, perRung = 48, 4
	build := func() *Kernel {
		k := NewKernel()
		k.Reg("t.r0", 8, 0)
		k.Wire("t.w0", 16, 0)
		k.Reg("t.r1", 64, 0)
		k.Array("t.a", 32, 70, 0)
		k.Reg("t.r2", 3, 0)
		k.Wire("t.w1", 64, 0)
		k.Array("t.b", 8, 100, 0)
		k.Array("t.c", 64, 5, 0)
		return k
	}
	const regs, words = 3, 70 + 100 + 5
	rng := rand.New(rand.NewSource(1))

	// The golden script: a few writes a tick, and per interval one word
	// written at its first tick and written back at its third.
	type write struct {
		arr, word int
		v         uint64
	}
	script := make([][]write, ticks)
	for i := range script {
		for n := rng.Intn(4); n > 0; n-- {
			a := rng.Intn(3)
			script[i] = append(script[i], write{a, rng.Intn([]int{70, 100, 5}[a]), rng.Uint64()})
		}
	}
	back := make([]write, ticks/perRung)
	for i := range back {
		back[i] = write{rng.Intn(3), rng.Intn(5), rng.Uint64()}
	}
	step := func(k *Kernel, tick int, kept *uint64) {
		arrs, b := k.Arrays(), back[tick/perRung]
		switch tick % perRung {
		case 0:
			*kept = arrs[b.arr].Read(b.word)
			arrs[b.arr].Write(b.word, b.v)
		case 2:
			arrs[b.arr].Write(b.word, *kept)
		}
		for _, w := range script[tick] {
			arrs[w.arr].Write(w.word, w.v)
		}
		for _, s := range k.Signals() {
			if s.IsReg() {
				s.SetNext(uint64(tick*7919) ^ uint64(len(s.Name())))
			} else {
				s.Set(uint64(tick) << 3)
			}
		}
		k.Cycle()
	}

	// at[i] is the golden state at tick i, written[i] the words written from
	// there to tick i+1, deltas[i] tick i's state against its rung.
	g, gr := build(), build()
	at, deltas, written := make([]*Snapshot, ticks+1), make([][]uint64, ticks+1), make([][]uint64, ticks)
	var kept, keptR uint64
	for i := 0; ; i++ {
		at[i] = g.Snapshot()
		if err := g.Restore(at[i]); err != nil {
			t.Fatal(err)
		}
		if i%perRung == 0 {
			if err := gr.Restore(at[i]); err != nil {
				t.Fatal(err)
			}
		} else {
			deltas[i] = gr.AppendDelta(nil)
		}
		if i == ticks {
			break
		}
		step(g, i, &kept)
		step(gr, i, &keptR)
		written[i] = slices.Clone(g.Touched())
	}
	// The data must bite: a word differs at a tick inside an interval and
	// at neither of its rungs.
	hazard := false
	for i := 1; i < ticks; i++ {
		lo, hi := at[i-i%perRung].arr, at[i-i%perRung+perRung].arr
		for w, v := range at[i].arr {
			hazard = hazard || v != lo[w] && lo[w] == hi[w]
		}
	}
	if !hazard {
		t.Fatal("no word is written and written back inside an interval: the test misses the case")
	}
	between := func(i, j int) []uint64 {
		near := make([]uint64, len(written[0]))
		for x := min(i, j); x < max(i, j); x++ {
			for w, m := range written[x] {
				near[w] |= m
			}
		}
		return near
	}

	state := func(k *Kernel) []uint64 {
		return slices.Concat(k.regCur, k.regNxt, k.wireCur, k.arr, []uint64{k.cycle})
	}
	// mutate applies the same random upsets to both kernels.
	mutate := func(ks ...*Kernel) {
		for n := rng.Intn(6); n > 0; n-- {
			kind, a, i, bit, v := rng.Intn(5), rng.Intn(3), rng.Intn(5), rng.Intn(8), rng.Uint64()
			x := int32(rng.Intn(regs + words))
			for _, k := range ks {
				arr := k.Arrays()[a]
				switch kind {
				case 0:
					arr.Write(i, v)
				case 1:
					_ = k.FlipBit(Node{Name: arr.Name(), Word: i, Bit: bit})
				case 2:
					_ = k.FlipCarried(Node{Name: arr.Name(), Word: i, Bit: bit})
				case 3:
					k.XorWord(x, v)
				case 4:
					old := arr.Read(i)
					arr.Write(i, v)
					arr.Write(i, old)
				}
			}
		}
	}
	// e hops by RestoreNear; ref, restored in full, holds what e must.
	e, ref := build(), build()
	base := rng.Intn(ticks + 1)
	for _, k := range []*Kernel{e, ref} {
		if err := k.Restore(at[base]); err != nil {
			t.Fatal(err)
		}
	}
	same := func(what string) {
		t.Helper()
		if !slices.Equal(state(e), state(ref)) {
			t.Fatalf("%s: the kernel differs from one restored in full", what)
		}
	}
	dst, want := make([]WordDiff, regs+words), make([]WordDiff, regs+words)
	for hop := 0; hop < 2000; hop++ {
		if hop%7 == 0 {
			// A witness armed and stopped over a word leaves tracking on.
			w, err := e.StartWitness([]WitnessNet{{Name: "t.b", Word: hop % 100}})
			if err != nil {
				t.Fatal(err)
			}
			w.Stop()
		}
		mutate(e, ref)
		to := rng.Intn(ticks + 1)
		near := between(base, to)
		for _, room := range []int{len(dst), rng.Intn(4)} {
			n, ok := e.DiffNear(at[to], at[base], near, dst[:room])
			wn, wok := ref.Diff(at[to], want[:room])
			if n != wn || ok != wok || !slices.Equal(dst[:n], want[:wn]) {
				t.Fatalf("hop %d, from tick %d to %d, room %d: DiffNear %v (ok %v), Diff %v (ok %v)",
					hop, base, to, room, dst[:n], ok, want[:wn], wok)
			}
		}
		if err := e.RestoreNear(at[to], at[base], near); err != nil {
			t.Fatal(err)
		}
		if err := ref.Restore(at[to]); err != nil {
			t.Fatal(err)
		}
		same(fmt.Sprintf("hop %d, from tick %d to %d", hop, base, to))
		if base = to; base%perRung == 0 || rng.Intn(3) != 0 {
			continue
		}
		// Onto the rung below, then the tick's delta: the tick again, and e
		// based on the rung with the delta's words touched.
		r := base - base%perRung
		if err := e.RestoreNear(at[r], at[base], between(base, r)); err != nil {
			t.Fatal(err)
		}
		if rest := e.ApplyDelta(deltas[base]); len(rest) != 0 {
			t.Fatalf("tick %d: %d words left after its delta", base, len(rest))
		}
		same(fmt.Sprintf("hop %d, rung %d and the delta of tick %d", hop, r, base))
		base = r
	}
}
