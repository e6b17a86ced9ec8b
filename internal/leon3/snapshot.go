package leon3

import (
	"fmt"

	"repro/internal/rtl"
	"repro/internal/sparc"
)

// Snapshot captures the complete dynamic state of a core at a cycle
// boundary: every RTL signal and memory array via the kernel snapshot,
// plus the architectural instruction counters, pipeline diagnostics and
// run status. Together with a mem.Image of the bus memory it is enough to
// fork bit-identical continuations of a run — the checkpoint mechanism the
// fault-injection campaign engine uses to avoid re-simulating the golden
// warm-up prefix for every experiment.
type Snapshot struct {
	kern     *rtl.Snapshot
	counts   [7]uint64 // Icount, then the six stall counters (Core.counts)
	opCounts [sparc.NumOps]uint64
	status   Status
	trapType uint8
	entry    uint32
}

// Cycle returns the cycle count at which the snapshot was taken.
func (s *Snapshot) Cycle() uint64 { return s.kern.Cycle() }

// Snapshot captures the core's dynamic state as a deep copy; the core may
// keep running without disturbing it. Bus state (memory contents, off-core
// trace) is owned by the bus and must be snapshotted separately.
func (c *Core) Snapshot() *Snapshot {
	s := &Snapshot{kern: new(rtl.Snapshot)}
	c.SnapshotInto(s)
	return s
}

// Snapshots returns n empty snapshots for SnapshotInto whose kernel state
// shares one backing allocation (rtl.Kernel.Snapshots).
func (c *Core) Snapshots(n int) []Snapshot {
	ks := c.K.Snapshots(n)
	out := make([]Snapshot, n)
	for i := range out {
		out[i].kern = &ks[i]
	}
	return out
}

// SnapshotInto is Snapshot into s, one of Snapshots' or an earlier
// Snapshot's, reusing its storage.
func (c *Core) SnapshotInto(s *Snapshot) {
	c.K.SnapshotInto(s.kern)
	s.counts = c.counts()
	s.opCounts = c.OpCounts
	s.status = c.status
	s.trapType = c.trapType
	s.entry = c.entry
}

// Restore loads a snapshot into the core, which must have been built by
// New with the same entry point (the kernel structure is deterministic, so
// any same-entry core matches). The core's bus is left untouched: callers
// fork the memory image and preload the trace prefix themselves.
func (c *Core) Restore(s *Snapshot) error { return c.RestoreNear(s, nil, nil) }

// RestoreNear is Restore by rtl.Kernel.RestoreNear: for a core last
// restored from from, near marks the array words in which s may differ
// from it, and only those and the words the core wrote since are copied.
// A nil from is Restore.
func (c *Core) RestoreNear(s, from *Snapshot, near []uint64) error {
	if s.entry != c.entry {
		return fmt.Errorf("leon3: snapshot entry %08x does not match core entry %08x", s.entry, c.entry)
	}
	var fk *rtl.Snapshot
	if from != nil {
		fk = from.kern
	}
	if err := c.K.RestoreNear(s.kern, fk, near); err != nil {
		return err
	}
	c.restoreDiagnostics(s)
	return nil
}

// restoreDiagnostics loads the counters and the run status of s.
func (c *Core) restoreDiagnostics(s *Snapshot) {
	c.setCounts(s.counts)
	c.OpCounts = s.opCounts
	c.status = s.status
	c.trapType = s.trapType
}

// counts returns the instruction and stall counters, as Snapshot keeps them.
func (c *Core) counts() [7]uint64 {
	return [7]uint64{c.Icount, c.StallMismatch, c.StallEmpty, c.StallDCache,
		c.StallMulDiv, c.StallLoadUse, c.StallAnnul}
}

// setCounts loads counters laid out as counts returns them.
func (c *Core) setCounts(n [7]uint64) {
	c.Icount = n[0]
	c.StallMismatch, c.StallEmpty, c.StallDCache = n[1], n[2], n[3]
	c.StallMulDiv, c.StallLoadUse, c.StallAnnul = n[4], n[5], n[6]
}

// AppendDelta appends to d the core's state relative to s, the snapshot it
// was last restored from: its kernel's (rtl.Kernel.AppendDelta), then the
// counters that differ from s's (rtl.AppendChanged). ApplyDelta loads it
// into a core restored from s. The run status is not recorded: both the
// core and s must be running.
func (c *Core) AppendDelta(d []uint64, s *Snapshot) []uint64 {
	d = c.K.AppendDelta(d)
	n, base := c.counts(), s.counts
	d = rtl.AppendChanged(d, n[:], base[:])
	return rtl.AppendChanged(d, c.OpCounts[:], s.opCounts[:])
}

// ApplyDelta puts a core restored from the snapshot an AppendDelta core was
// last restored from into that core's state. The bus is left alone, as by
// Restore.
func (c *Core) ApplyDelta(d []uint64) {
	d = c.K.ApplyDelta(d)
	n := c.counts()
	d = rtl.LoadChanged(d, n[:])
	c.setCounts(n)
	rtl.LoadChanged(d, c.OpCounts[:])
}

// StateEquals reports whether the core's committed RTL state (register
// slab, memory arrays) equals the snapshot's. Wire slabs, the cycle
// counter and the architectural diagnostics (instruction/stall counters)
// are deliberately excluded: wires carry no state across the clock edge
// (TestWiresCarryNoState enforces that), the cycle counter only labels
// off-core accesses (TestCycleCounterCarriesNoState), and the counters
// never feed back into the datapath. The batched campaign engine uses
// this as its reconvergence check — a forked fault universe that
// StateEquals a golden snapshot, with a matching off-core write
// position, produces the same future as the golden run from that
// snapshot on while its fault stays unread, shifted by however many
// cycles it sits past the snapshot's.
func (c *Core) StateEquals(s *Snapshot) bool {
	return c.K.StateEquals(s.kern)
}

// Diff lists in dst the state words in which the core's committed RTL state
// differs from the snapshot's (rtl.Kernel.Diff): a universe that StateEquals
// the snapshot but for those words.
func (c *Core) Diff(s *Snapshot, dst []rtl.WordDiff) (int, bool) {
	return c.K.Diff(s.kern, dst)
}

// DiffNear is Diff for a core last restored from from, where near marks the
// array words in which s may differ from it (rtl.Kernel.DiffNear).
func (c *Core) DiffNear(s, from *Snapshot, near []uint64, dst []rtl.WordDiff) (int, bool) {
	return c.K.DiffNear(s.kern, from.kern, near, dst)
}
