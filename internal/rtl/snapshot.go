package rtl

import (
	"fmt"
	"slices"
)

// Snapshot captures the full dynamic state of a kernel at a cycle
// boundary: the committed value of every signal, the contents of every
// memory array, and the cycle counter. Because the kernel keeps all of
// that state in flat slabs, a snapshot is three bulk slice copies rather
// than a per-signal walk. The pending slabs are not part of it: the clock
// edge commits with a bulk copy, so at a cycle boundary the pending
// register slab equals the committed one, and a pending wire value feeds
// nothing. Fault forcing (stuck-at masks) is deliberately not
// part of a snapshot either: checkpoints are taken on clean golden runs
// and restored into clean kernels, so a restored design always starts
// fault-free.
type Snapshot struct {
	cycle uint64
	regs  []uint64
	wires []uint64
	arr   []uint64
	narr  int // array count, for the shape check
}

// Cycle returns the cycle count at which the snapshot was taken.
func (s *Snapshot) Cycle() uint64 { return s.cycle }

// Snapshot captures the kernel's dynamic state. The snapshot is a deep
// copy; the kernel may keep running without disturbing it.
func (k *Kernel) Snapshot() *Snapshot {
	s := new(Snapshot)
	k.SnapshotInto(s)
	return s
}

// Snapshots returns n empty snapshots whose slabs are windows of one
// backing allocation sized for this kernel: SnapshotInto fills each in
// place. The campaign engine's golden ladder is hundreds of them.
func (k *Kernel) Snapshots(n int) []Snapshot {
	nr, nw, na := len(k.regCur), len(k.wireCur), len(k.arr)
	slab := make([]uint64, n*(nr+nw+na))
	out := make([]Snapshot, n)
	for i := range out {
		s := slab[i*(nr+nw+na):]
		out[i] = Snapshot{regs: s[:0:nr], wires: s[nr : nr : nr+nw], arr: s[nr+nw : nr+nw : nr+nw+na]}
	}
	return out
}

// SnapshotInto is Snapshot into s, reusing s's slabs: the campaign
// engine's recurrence search re-saves one buffer at growing intervals.
func (k *Kernel) SnapshotInto(s *Snapshot) {
	s.cycle = k.cycle
	s.regs = append(s.regs[:0], k.regCur...)
	s.wires = append(s.wires[:0], k.wireCur...)
	s.arr = append(s.arr[:0], k.arr...)
	s.narr = len(k.arrays)
}

// Restore loads a snapshot into the kernel, which must have an identical
// structure (same signals and arrays in the same declaration order — in
// practice a kernel built by the same constructor as the snapshotted one).
// Any armed faults on the kernel are cleared so the restored
// design matches the clean snapshotted state exactly. Restore is the
// campaign engine's per-experiment reset of a pooled core, so it is
// deliberately cheap: clearing is O(armed faults) and the state reload is
// a handful of bulk copies.
func (k *Kernel) Restore(s *Snapshot) error {
	if len(s.regs) != len(k.regCur) || len(s.wires) != len(k.wireCur) ||
		len(s.arr) != len(k.arr) || s.narr != len(k.arrays) {
		return fmt.Errorf("rtl: snapshot shape (%d regs, %d wires, %d arrays, %d array words) does not match kernel (%d regs, %d wires, %d arrays, %d array words)",
			len(s.regs), len(s.wires), s.narr, len(s.arr),
			len(k.regCur), len(k.wireCur), len(k.arrays), len(k.arr))
	}
	k.ClearFaults()
	copy(k.regCur, s.regs)
	copy(k.regNxt, s.regs)
	copy(k.wireCur, s.wires)
	copy(k.arr, s.arr)
	k.cycle = s.cycle
	return nil
}

// StateEquals reports whether the kernel's committed state at a cycle
// boundary equals the snapshot's: same register slab, same array slab
// (slabs of another length are never equal). Three things are
// deliberately not compared:
//
//   - the pending register slab, because the clock edge commits with a
//     bulk copy (regCur := regNxt), so at any cycle boundary the two
//     register slabs are identical;
//   - the wire slabs, because in a well-formed design every wire is
//     driven before it is read within a cycle — wire slots carry no
//     information across the clock edge, so two kernels with equal
//     register and array state produce identical futures even if stale
//     wire residue differs. leon3's TestWiresCarryNoState enforces this
//     property dynamically;
//   - the cycle counter, because it labels time and feeds no process
//     (leon3's TestCycleCounterCarriesNoState): a kernel in the
//     snapshot's state at another cycle replays the snapshot's future,
//     that many cycles shifted. A caller that wants the same instant
//     compares Now with the snapshot's Cycle itself.
//
// The batched campaign engine uses StateEquals as its reconvergence
// check: a forked fault universe whose raw state re-equals a golden
// snapshot (and whose off-core write position matches) has healed and
// will track the golden run for as long as its fault stays unread.
func (k *Kernel) StateEquals(s *Snapshot) bool {
	return slices.Equal(k.regCur, s.regs) && slices.Equal(k.arr, s.arr)
}

// WordDiff is one state word in which a kernel differs from a snapshot.
// Index numbers the kernel's state words: its clocked signals in declaration
// order, then the words of its arrays, array by array in declaration order.
// Mask is the kernel's word XOR the snapshot's.
type WordDiff struct {
	Index int32
	Mask  uint64
}

// diffChunk is how many words Diff compares in one bulk equality before it
// looks at them one by one: a few words of the thousands differ.
const diffChunk = 64

// Diff is StateEquals word by word: it lists in dst, registers first, the
// state words in which the kernel's committed state differs from the
// snapshot's, and returns how many. ok is false when more words differ than
// dst holds, or the slabs have another length. The campaign engine parks a
// universe that differs from a golden rung in a few words on those words'
// read logs.
func (k *Kernel) Diff(s *Snapshot, dst []WordDiff) (n int, ok bool) {
	if len(s.regs) != len(k.regCur) || len(s.arr) != len(k.arr) {
		return 0, false
	}
	base := 0
	for _, slab := range [2][2][]uint64{{k.regCur, s.regs}, {k.arr, s.arr}} {
		a, b := slab[0], slab[1]
		for lo := 0; lo < len(a); lo += diffChunk {
			hi := min(lo+diffChunk, len(a))
			if slices.Equal(a[lo:hi], b[lo:hi]) {
				continue
			}
			for i := lo; i < hi; i++ {
				if x := a[i] ^ b[i]; x != 0 {
					if n == len(dst) {
						return n, false
					}
					dst[n] = WordDiff{Index: int32(base + i), Mask: x}
					n++
				}
			}
		}
		base = len(a)
	}
	return n, true
}

// XorWord inverts the bits of mask in state word i, numbered as Diff numbers
// them: a register in its committed and its pending slot, which hold the same
// word at a cycle boundary (an upset carried over an edge, as FlipCarried
// leaves it), an array word in its one slot.
func (k *Kernel) XorWord(i int32, mask uint64) {
	if int(i) < len(k.regCur) {
		k.regCur[i] ^= mask
		k.regNxt[i] ^= mask
		return
	}
	k.arr[int(i)-len(k.regCur)] ^= mask
}

// Recurs is StateEquals plus the wire slab: exactly the snapshot's
// state, cycle counter aside. The engine's recurrence search proves a
// universe periodic while its fault is still armed, which is outside the
// clean-design argument that lets StateEquals skip the wires. Registers
// are compared first: they differ on almost every cycle.
func (k *Kernel) Recurs(s *Snapshot) bool {
	return k.StateEquals(s) && slices.Equal(k.wireCur, s.wires)
}

// SetNow rebases the cycle counter without touching state: how tests show
// that the counter carries none.
func (k *Kernel) SetNow(cycle uint64) { k.cycle = cycle }
