package rtl

import (
	"fmt"
	"math/bits"
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
//
// From its first Restore on, a kernel tracks writes: it marks every array
// word that MemArray.Write, FlipBit, FlipCarried or XorWord changes
// (Touched), so that RestoreNear and DiffNear visit only the words that can
// differ. A kernel only ever run from reset tracks nothing.
func (k *Kernel) Restore(s *Snapshot) error {
	if err := k.fits(s); err != nil {
		return err
	}
	k.ClearFaults()
	copy(k.regCur, s.regs)
	copy(k.regNxt, s.regs)
	copy(k.wireCur, s.wires)
	copy(k.arr, s.arr)
	k.cycle = s.cycle
	k.rebase(s)
	return nil
}

// fits checks that s was taken of a kernel of this one's structure.
func (k *Kernel) fits(s *Snapshot) error {
	if len(s.regs) != len(k.regCur) || len(s.wires) != len(k.wireCur) ||
		len(s.arr) != len(k.arr) || s.narr != len(k.arrays) {
		return fmt.Errorf("rtl: snapshot shape (%d regs, %d wires, %d arrays, %d array words) does not match kernel (%d regs, %d wires, %d arrays, %d array words)",
			len(s.regs), len(s.wires), s.narr, len(s.arr),
			len(k.regCur), len(k.wireCur), len(k.arrays), len(k.arr))
	}
	return nil
}

// rebase makes s, just restored, the snapshot the touched words are counted
// from, and turns write tracking on at the first call.
func (k *Kernel) rebase(s *Snapshot) {
	if k.touched == nil {
		n := 0
		for _, a := range k.arrays {
			n += (len(a.data) + 63) / 64
		}
		k.touched = make([]uint64, n)
		n = 0
		for _, a := range k.arrays {
			w := (len(a.data) + 63) / 64
			a.touched = k.touched[n : n+w : n+w]
			n += w
			a.updateSlow()
		}
	} else {
		clear(k.touched)
	}
	k.base = s
}

// Touched returns the kernel's touched-word bitmap: one bit per array
// word, set when the word was written since the last Restore, array by
// array in declaration order and each array's bits from a fresh bitmap
// word. It is nil on a kernel never restored, and the caller must not keep
// it across a Restore.
func (k *Kernel) Touched() []uint64 { return k.touched }

// RestoreNear is Restore for a kernel whose last Restore (or RestoreNear)
// was from the snapshot from, where near marks, as Touched does, every
// array word in which s may differ from from — the words the run that
// took both wrote between them. The kernel's arrays then differ from s's
// only in words near or touched, and only those are copied, with the
// register and wire slabs. On a kernel not based on from it is Restore.
func (k *Kernel) RestoreNear(s, from *Snapshot, near []uint64) error {
	if from == nil || k.base != from || len(near) != len(k.touched) {
		return k.Restore(s)
	}
	if err := k.fits(s); err != nil {
		return err
	}
	k.ClearFaults()
	copy(k.regCur, s.regs)
	copy(k.regNxt, s.regs)
	copy(k.wireCur, s.wires)
	w := 0
	for _, a := range k.arrays {
		for j, m := range a.touched {
			for m |= near[w+j]; m != 0; m &= m - 1 {
				i := a.off + (j<<6 | bits.TrailingZeros64(m))
				k.arr[i] = s.arr[i]
			}
		}
		w += len(a.touched)
	}
	k.cycle = s.cycle
	k.rebase(s)
	return nil
}

// AppendDelta appends to d the kernel's state relative to the snapshot it
// was last restored from, and returns the extended slice: the cycle
// counter; the register and the wire words that differ from the
// snapshot's (AppendChanged); the number of array words written since the
// restore, then each one's index and value. A kernel restored from the
// same snapshot takes that state with ApplyDelta. The campaign engine
// freezes golden states between its ladder's rungs this way, a few hundred
// bytes each against a snapshot's kilobytes. It panics on a kernel never
// restored.
func (k *Kernel) AppendDelta(d []uint64) []uint64 {
	if k.base == nil {
		panic("rtl: AppendDelta on a kernel not restored from a snapshot")
	}
	d = append(d, k.cycle)
	d = AppendChanged(d, k.regCur, k.base.regs)
	d = AppendChanged(d, k.wireCur, k.base.wires)
	at := len(d)
	d = append(d, 0)
	for _, a := range k.arrays {
		for j, m := range a.touched {
			for ; m != 0; m &= m - 1 {
				i := a.off + (j<<6 | bits.TrailingZeros64(m))
				d = append(d, uint64(i), k.arr[i])
			}
		}
	}
	d[at] = uint64(len(d)-at-1) / 2
	return d
}

// ApplyDelta puts the kernel, restored from the snapshot an AppendDelta
// kernel was last restored from, into that kernel's state, and returns
// what of d follows the delta. The array words it writes count as
// touched, so RestoreNear and DiffNear stay exact.
func (k *Kernel) ApplyDelta(d []uint64) []uint64 {
	k.cycle = d[0]
	d = LoadChanged(d[1:], k.regCur)
	copy(k.regNxt, k.regCur)
	d = LoadChanged(d, k.wireCur)
	n := int(d[0])
	for p := d[1 : 1+2*n]; len(p) > 0; p = p[2:] {
		k.arr[p[0]] = p[1]
		k.touch(int(p[0]))
	}
	return d[1+2*n:]
}

// AppendChanged appends to d a bitmap of the words in which cur differs
// from base (bit i of word i/64), then those words of cur in order, and
// returns the extended slice. LoadChanged reads it back over a copy of
// base.
func AppendChanged(d, cur, base []uint64) []uint64 {
	at := len(d)
	for lo := 0; lo < len(cur); lo += 64 {
		c := cur[lo:min(lo+64, len(cur))]
		b := base[lo:][:len(c)]
		// Without a branch (which words differ is unpredictable), four
		// words a step: the ladder walk takes a delta every few cycles.
		var m uint64
		i := 0
		for ; i+4 <= len(c); i += 4 {
			x0, x1, x2, x3 := c[i]^b[i], c[i+1]^b[i+1], c[i+2]^b[i+2], c[i+3]^b[i+3]
			m |= ((x0|-x0)>>63 | (x1|-x1)>>63<<1 | (x2|-x2)>>63<<2 | (x3|-x3)>>63<<3) << uint(i)
		}
		for ; i < len(c); i++ {
			x := c[i] ^ b[i]
			m |= (x | -x) >> 63 << uint(i)
		}
		d = append(d, m)
	}
	for j, m := range d[at:] {
		for ; m != 0; m &= m - 1 {
			d = append(d, cur[j<<6|bits.TrailingZeros64(m)])
		}
	}
	return d
}

// LoadChanged writes into dst the words AppendChanged recorded of a slice
// of dst's length, and returns what of d follows them.
func LoadChanged(d, dst []uint64) []uint64 {
	nb := (len(dst) + 63) / 64
	mask, vals := d[:nb], d[nb:]
	for j, m := range mask {
		for ; m != 0; m &= m - 1 {
			dst[j<<6|bits.TrailingZeros64(m)] = vals[0]
			vals = vals[1:]
		}
	}
	return vals
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
// looks at them one by one: a few words of the thousands differ. It is the
// width of a touched-bitmap word, so that DiffNear skips a chunk of an
// array on one load.
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
	if n, ok = diffSlab(k.regCur, s.regs, nil, nil, 0, dst, 0); ok {
		n, ok = diffSlab(k.arr, s.arr, nil, nil, len(k.regCur), dst, n)
	}
	return n, ok
}

// DiffNear is Diff for a kernel based on the snapshot from (RestoreNear's
// from and near): the register slab in full, and only the array words near
// or touched, where alone the kernel's arrays can differ from s's. It
// reports what Diff reports, in Diff's order. On a kernel not based on from
// it is Diff.
func (k *Kernel) DiffNear(s, from *Snapshot, near []uint64, dst []WordDiff) (n int, ok bool) {
	if from == nil || k.base != from || len(near) != len(k.touched) {
		return k.Diff(s, dst)
	}
	if len(s.regs) != len(k.regCur) || len(s.arr) != len(k.arr) {
		return 0, false
	}
	if n, ok = diffSlab(k.regCur, s.regs, nil, nil, 0, dst, 0); !ok {
		return n, ok
	}
	w := 0
	for _, a := range k.arrays {
		lo, hi := a.off, a.off+len(a.data)
		nw := len(a.touched)
		if n, ok = diffSlab(k.arr[lo:hi], s.arr[lo:hi], near[w:w+nw], a.touched, len(k.regCur)+lo, dst, n); !ok {
			return n, ok
		}
		w += nw
	}
	return n, true
}

// diffSlab appends to dst[:n] the words in which slab a differs from b,
// indexed from base, and returns the new count; ok is false when dst fills.
// With bitmaps near and touched (of one bit per word of a), a chunk is
// looked at only where either marks a word, and then only those words.
func diffSlab(a, b, near, touched []uint64, base int, dst []WordDiff, n int) (int, bool) {
	for lo := 0; lo < len(a); lo += diffChunk {
		hi, m := min(lo+diffChunk, len(a)), ^uint64(0)
		if near != nil {
			if m = near[lo/diffChunk] | touched[lo/diffChunk]; m == 0 {
				continue
			}
		}
		if slices.Equal(a[lo:hi], b[lo:hi]) {
			continue
		}
		for ; m != 0; m &= m - 1 {
			i := lo + bits.TrailingZeros64(m)
			if i >= hi {
				break
			}
			if x := a[i] ^ b[i]; x != 0 {
				if n == len(dst) {
					return n, false
				}
				dst[n] = WordDiff{Index: int32(base + i), Mask: x}
				n++
			}
		}
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
	j := int(i) - len(k.regCur)
	k.arr[j] ^= mask
	k.touch(j)
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
