package mem

import "fmt"

// Access is one off-core bus access. For the failure comparator only write
// accesses matter ("any mismatch detected when writing to memory is
// considered a system failure", paper §4.1), but reads can be recorded for
// analysis.
type Access struct {
	Write bool
	Addr  uint32
	Size  uint8  // 1, 2 or 4 bytes
	Data  uint32 // written value (or value read)
	Seq   uint64 // instruction index (ISS) or cycle (RTL) of the access
}

func (a Access) String() string {
	k := "rd"
	if a.Write {
		k = "wr"
	}
	return fmt.Sprintf("%s%d [%08x] = %08x @%d", k, a.Size*8, a.Addr, a.Data, a.Seq)
}

// Trace is the off-core boundary signature of a run: the ordered sequence
// of writes plus the termination status.
type Trace struct {
	Writes   []Access
	Exited   bool
	ExitCode uint32
}

// Divergence compares t against a golden trace and returns the index of the
// first differing write, or -1 if t is a prefix-consistent match. A run
// that exited with a different code, or that produced fewer writes and then
// stopped, diverges at the end of the shorter sequence.
func (t *Trace) Divergence(golden *Trace) int {
	n := len(t.Writes)
	if len(golden.Writes) < n {
		n = len(golden.Writes)
	}
	for i := 0; i < n; i++ {
		a, b := t.Writes[i], golden.Writes[i]
		if a.Write != b.Write || a.Addr != b.Addr || a.Size != b.Size || a.Data != b.Data {
			return i
		}
	}
	if len(t.Writes) != len(golden.Writes) {
		return n
	}
	if t.Exited != golden.Exited || t.ExitCode != golden.ExitCode {
		return n
	}
	return -1
}

// Bus connects a processor model to memory and the I/O devices, recording
// the off-core access stream. Writes to ExitAddr terminate the program.
type Bus struct {
	Mem *Memory

	// RecordReads includes read accesses in Reads (writes are always
	// recorded in Trace).
	RecordReads bool
	Reads       []Access

	// OnWrite, when non-nil, observes every off-core write as it happens
	// (used by the fault-injection comparator for early mismatch exit).
	OnWrite func(Access)

	Trace Trace

	out []uint32 // values written to OutAddr

	// stored has one bit per word of [trackBase, trackBase+trackLen), set
	// by every write that touches the word; see TrackStores.
	trackBase, trackLen uint32
	stored              []uint64
}

// NewBus returns a bus over m.
func NewBus(m *Memory) *Bus {
	return &Bus{Mem: m}
}

// Reset empties the recorded trace, reads, output port and tracked stores,
// keeping their capacity, for a run over another memory state; Mem,
// RecordReads, OnWrite and the tracked range stay as they are.
func (b *Bus) Reset() {
	b.Trace = Trace{Writes: b.Trace.Writes[:0]}
	b.Reads, b.out = b.Reads[:0], b.out[:0]
	clear(b.stored)
}

// TrackStores makes the bus remember, one bit per word, which words of
// [base, base+4*words) its writes have touched since the last Reset. The
// ISS executes a program image through a decode-once table and must fall
// back to memory for exactly the words a run has stored into; the image
// holds data beside text, so a coarser mark would die on the first data
// store.
func (b *Bus) TrackStores(base uint32, words int) {
	b.trackBase, b.trackLen = base, uint32(words)*4
	b.stored = make([]uint64, (words+63)/64)
}

// Stored reports whether a write since the last Reset touched word i of
// the tracked range. A word outside it — on a bus that tracks nothing,
// every word — reads as stored: the caller's fallback is always exact.
func (b *Bus) Stored(i uint32) bool {
	return i >= b.trackLen/4 || b.stored[i>>6]>>(i&63)&1 != 0
}

// Exited reports whether the program wrote ExitAddr.
func (b *Bus) Exited() bool { return b.Trace.Exited }

// ExitCode returns the value written to ExitAddr.
func (b *Bus) ExitCode() uint32 { return b.Trace.ExitCode }

// Out returns the values written to the output port.
func (b *Bus) Out() []uint32 { return b.out }

// Fetch32 reads an instruction word without recording an access (LEON3
// instruction fetches flow through the instruction cache; they are not part
// of the off-core write signature).
func (b *Bus) Fetch32(addr uint32) uint32 { return b.Mem.Read32(addr) }

// Read performs a data read of size bytes.
func (b *Bus) Read(addr uint32, size uint8, seq uint64) uint32 {
	var v uint32
	switch size {
	case 1:
		v = uint32(b.Mem.Read8(addr))
	case 2:
		v = uint32(b.Mem.Read16(addr))
	default:
		v = b.Mem.Read32(addr)
	}
	if b.RecordReads {
		b.Reads = append(b.Reads, Access{Addr: addr, Size: size, Data: v, Seq: seq})
	}
	return v
}

// Write performs a data write of size bytes, records it in the off-core
// trace and handles the I/O devices. The recorded data is truncated to the
// access size, matching what the bus lines carry.
func (b *Bus) Write(addr uint32, size uint8, v uint32, seq uint64) {
	switch size {
	case 1:
		v &= 0xff
	case 2:
		v &= 0xffff
	}
	switch size {
	case 1:
		b.Mem.Write8(addr, uint8(v))
	case 2:
		b.Mem.Write16(addr, uint16(v))
	default:
		b.Mem.Write32(addr, v)
	}
	if off := addr - b.trackBase; off < b.trackLen {
		b.stored[off>>8] |= 1 << (off >> 2 & 63)
	}
	acc := Access{Write: true, Addr: addr, Size: size, Data: v, Seq: seq}
	b.Trace.Writes = append(b.Trace.Writes, acc)
	if addr == ExitAddr {
		b.Trace.Exited = true
		b.Trace.ExitCode = v
	}
	if addr == OutAddr {
		b.out = append(b.out, v)
	}
	if b.OnWrite != nil {
		b.OnWrite(acc)
	}
}
