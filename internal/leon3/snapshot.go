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
	icount   uint64
	opCounts [sparc.NumOps]uint64
	stalls   [6]uint64
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
	s.icount = c.Icount
	s.opCounts = c.OpCounts
	s.stalls = [6]uint64{c.StallMismatch, c.StallEmpty, c.StallDCache,
		c.StallMulDiv, c.StallLoadUse, c.StallAnnul}
	s.status = c.status
	s.trapType = c.trapType
	s.entry = c.entry
}

// Restore loads a snapshot into the core, which must have been built by
// New with the same entry point (the kernel structure is deterministic, so
// any same-entry core matches). The core's bus is left untouched: callers
// fork the memory image and preload the trace prefix themselves.
func (c *Core) Restore(s *Snapshot) error {
	if s.entry != c.entry {
		return fmt.Errorf("leon3: snapshot entry %08x does not match core entry %08x", s.entry, c.entry)
	}
	if err := c.K.Restore(s.kern); err != nil {
		return err
	}
	c.Icount = s.icount
	c.OpCounts = s.opCounts
	c.StallMismatch, c.StallEmpty, c.StallDCache = s.stalls[0], s.stalls[1], s.stalls[2]
	c.StallMulDiv, c.StallLoadUse, c.StallAnnul = s.stalls[3], s.stalls[4], s.stalls[5]
	c.status = s.status
	c.trapType = s.trapType
	return nil
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
