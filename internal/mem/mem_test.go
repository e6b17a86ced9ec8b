package mem

import (
	"testing"
	"testing/quick"
)

func TestMemoryReadWriteWidths(t *testing.T) {
	m := NewMemory()
	m.Write32(0x40000000, 0x11223344)
	if got := m.Read32(0x40000000); got != 0x11223344 {
		t.Fatalf("read32 = %#x", got)
	}
	// Big-endian byte order.
	if got := m.Read8(0x40000000); got != 0x11 {
		t.Errorf("byte0 = %#x, want 0x11", got)
	}
	if got := m.Read8(0x40000003); got != 0x44 {
		t.Errorf("byte3 = %#x, want 0x44", got)
	}
	if got := m.Read16(0x40000002); got != 0x3344 {
		t.Errorf("half = %#x, want 0x3344", got)
	}
	m.Write16(0x40000000, 0xaabb)
	if got := m.Read32(0x40000000); got != 0xaabb3344 {
		t.Errorf("after write16 = %#x", got)
	}
}

func TestMemoryUnmappedReadsZero(t *testing.T) {
	m := NewMemory()
	if m.Read32(0x12345678&^3) != 0 || m.Read8(0) != 0 {
		t.Error("unmapped memory must read as zero")
	}
}

func TestMemoryPageBoundary(t *testing.T) {
	m := NewMemory()
	addr := uint32(0x40000ffe) // crosses the 4 KiB page boundary
	m.Write32(addr&^1, 0xdeadbeef)
	if got := m.Read32(addr &^ 1); got != 0xdeadbeef {
		t.Errorf("cross-page read = %#x", got)
	}
}

func TestMemoryRoundTripQuick(t *testing.T) {
	m := NewMemory()
	f := func(addr, v uint32) bool {
		addr &^= 3
		m.Write32(addr, v)
		return m.Read32(addr) == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMemoryLoadImageAndClone(t *testing.T) {
	m := NewMemory()
	m.LoadImage(0x40000000, []byte{1, 2, 3, 4, 5})
	c := m.Clone()
	m.Write8(0x40000000, 0xff)
	if c.Read8(0x40000000) != 1 {
		t.Error("clone not independent")
	}
	if c.Read8(0x40000004) != 5 {
		t.Error("clone missing data")
	}
}

func TestBusTraceRecordsWrites(t *testing.T) {
	b := NewBus(NewMemory())
	b.Write(0x40000010, 4, 0xcafe, 7)
	b.Write(0x40000014, 2, 0x1234, 8)
	if len(b.Trace.Writes) != 2 {
		t.Fatalf("writes = %d", len(b.Trace.Writes))
	}
	w := b.Trace.Writes[0]
	if !w.Write || w.Addr != 0x40000010 || w.Size != 4 || w.Data != 0xcafe || w.Seq != 7 {
		t.Errorf("write0 = %v", w)
	}
	if b.Mem.Read16(0x40000014) != 0x1234 {
		t.Error("bus write did not reach memory")
	}
}

func TestBusExitDevice(t *testing.T) {
	b := NewBus(NewMemory())
	if b.Exited() {
		t.Fatal("exited before any write")
	}
	b.Write(ExitAddr, 4, 42, 0)
	if !b.Exited() || b.ExitCode() != 42 {
		t.Errorf("exit state = %v code %d", b.Exited(), b.ExitCode())
	}
}

func TestBusOutPort(t *testing.T) {
	b := NewBus(NewMemory())
	b.Write(OutAddr, 4, 1, 0)
	b.Write(OutAddr, 4, 2, 1)
	if got := b.Out(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("out = %v", got)
	}
}

func TestBusReadRecording(t *testing.T) {
	b := NewBus(NewMemory())
	b.Mem.Write32(0x40000000, 9)
	b.Read(0x40000000, 4, 0)
	if len(b.Reads) != 0 {
		t.Error("reads recorded without RecordReads")
	}
	b.RecordReads = true
	if v := b.Read(0x40000000, 4, 1); v != 9 {
		t.Errorf("read = %d", v)
	}
	if len(b.Reads) != 1 || b.Reads[0].Data != 9 {
		t.Errorf("reads = %v", b.Reads)
	}
}

func TestBusOnWriteHook(t *testing.T) {
	b := NewBus(NewMemory())
	var seen []Access
	b.OnWrite = func(a Access) { seen = append(seen, a) }
	b.Write(0x40000000, 4, 5, 0)
	if len(seen) != 1 || seen[0].Data != 5 {
		t.Errorf("hook saw %v", seen)
	}
}

// TestBusReset: a reset bus has recorded nothing and has not exited, and
// keeps its memory, its hook and its read recording.
func TestBusReset(t *testing.T) {
	b := NewBus(NewMemory())
	hooked := 0
	b.OnWrite = func(Access) { hooked++ }
	b.RecordReads = true
	b.Write(OutAddr, 4, 7, 0)
	b.Write(ExitAddr, 4, 3, 1)
	b.Read(RAMBase, 4, 2)
	b.Reset()
	if len(b.Trace.Writes)+len(b.Reads)+len(b.Out()) != 0 || b.Exited() || b.ExitCode() != 0 {
		t.Fatalf("after Reset: trace %+v, reads %v, out %v", b.Trace, b.Reads, b.Out())
	}
	b.Write(RAMBase, 4, 5, 0)
	b.Read(RAMBase, 4, 1)
	if hooked != 3 || len(b.Trace.Writes) != 1 || len(b.Reads) != 1 || b.Reads[0].Data != 5 {
		t.Errorf("a reset bus lost its hook, memory or read recording: %d hook calls, trace %+v, reads %v", hooked, b.Trace, b.Reads)
	}
}

func TestTraceDivergence(t *testing.T) {
	mk := func(vals ...uint32) *Trace {
		tr := &Trace{Exited: true}
		for i, v := range vals {
			tr.Writes = append(tr.Writes, Access{Write: true, Addr: 0x40000000 + uint32(4*i), Size: 4, Data: v})
		}
		return tr
	}
	g := mk(1, 2, 3)
	if d := mk(1, 2, 3).Divergence(g); d != -1 {
		t.Errorf("identical traces diverge at %d", d)
	}
	if d := mk(1, 9, 3).Divergence(g); d != 1 {
		t.Errorf("data mismatch at %d, want 1", d)
	}
	if d := mk(1, 2).Divergence(g); d != 2 {
		t.Errorf("short trace diverges at %d, want 2", d)
	}
	if d := mk(1, 2, 3, 4).Divergence(g); d != 3 {
		t.Errorf("long trace diverges at %d, want 3", d)
	}
	// Same writes, different exit state.
	h := mk(1, 2, 3)
	h.Exited = false
	if d := h.Divergence(g); d != 3 {
		t.Errorf("exit mismatch diverges at %d, want 3", d)
	}
	// Address mismatch.
	bad := mk(1, 2, 3)
	bad.Writes[0].Addr = 0x50000000
	if d := bad.Divergence(g); d != 0 {
		t.Errorf("addr mismatch at %d, want 0", d)
	}
}
