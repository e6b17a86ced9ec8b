// Package mem provides the memory subsystem shared by the instruction set
// simulator and the RTL processor model: a sparse big-endian memory, a
// system bus with memory-mapped I/O, and the off-core access trace that
// serves as the failure-manifestation boundary of the reproduced paper
// (the point where light-lockstep cores compare their outputs).
package mem

import "fmt"

// Memory map constants of the modeled system (LEON3-like).
const (
	RAMBase = 0x40000000 // program RAM
	IOBase  = 0x90000000 // memory-mapped I/O region

	// ExitAddr terminates the program when written; the stored word is the
	// exit code. OutAddr is the output port benchmarks write results to.
	ExitAddr = IOBase + 0x0
	OutAddr  = IOBase + 0x4
)

const pageBits = 12
const pageSize = 1 << pageBits

// Memory is a sparse, page-granular, big-endian 32-bit address space.
// A memory may sit as a copy-on-write overlay on top of a frozen Image
// (see Snapshot/Fork): reads fall through to the image, the first write
// to a shared page copies it into the overlay.
type Memory struct {
	pages map[uint32]*[pageSize]byte
	base  map[uint32]*[pageSize]byte // frozen COW base; never written
	free  []*[pageSize]byte          // private pages ForkInto took back
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte)}
}

func (m *Memory) page(addr uint32, create bool) *[pageSize]byte {
	pn := addr >> pageBits
	if p := m.pages[pn]; p != nil {
		return p
	}
	bp := m.base[pn]
	if !create {
		return bp
	}
	var p *[pageSize]byte
	if n := len(m.free); n > 0 {
		p, m.free = m.free[n-1], m.free[:n-1]
		if bp == nil {
			clear(p[:])
		}
	} else {
		p = new([pageSize]byte)
	}
	if bp != nil {
		*p = *bp
	}
	m.pages[pn] = p
	return p
}

// Read8 reads one byte; unmapped memory reads as zero.
func (m *Memory) Read8(addr uint32) uint8 {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&(pageSize-1)]
}

// Write8 writes one byte.
func (m *Memory) Write8(addr uint32, v uint8) {
	m.page(addr, true)[addr&(pageSize-1)] = v
}

// Read16 reads a big-endian halfword. addr must be 2-aligned.
func (m *Memory) Read16(addr uint32) uint16 {
	return uint16(m.Read8(addr))<<8 | uint16(m.Read8(addr+1))
}

// Write16 writes a big-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) {
	m.Write8(addr, uint8(v>>8))
	m.Write8(addr+1, uint8(v))
}

// Read32 reads a big-endian word. addr must be 4-aligned.
func (m *Memory) Read32(addr uint32) uint32 {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		return uint32(p[off])<<24 | uint32(p[off+1])<<16 | uint32(p[off+2])<<8 | uint32(p[off+3])
	}
	return uint32(m.Read16(addr))<<16 | uint32(m.Read16(addr+2))
}

// Write32 writes a big-endian word.
func (m *Memory) Write32(addr uint32, v uint32) {
	if off := addr & (pageSize - 1); off <= pageSize-4 {
		p := m.page(addr, true)
		p[off] = uint8(v >> 24)
		p[off+1] = uint8(v >> 16)
		p[off+2] = uint8(v >> 8)
		p[off+3] = uint8(v)
		return
	}
	m.Write16(addr, uint16(v>>16))
	m.Write16(addr+2, uint16(v))
}

// LoadImage copies a big-endian image to base, one page-sized chunk at a
// time (a byte-wise load would pay a page lookup per byte).
func (m *Memory) LoadImage(base uint32, image []byte) {
	for len(image) > 0 {
		p := m.page(base, true)
		n := copy(p[base&(pageSize-1):], image)
		image = image[n:]
		base += uint32(n)
	}
}

// Clone returns a deep copy of the memory (used to restore pristine state
// between fault-injection runs without re-assembling the workload).
func (m *Memory) Clone() *Memory {
	c := NewMemory()
	for _, layer := range []map[uint32]*[pageSize]byte{m.base, m.pages} {
		for pn, p := range layer {
			cp := new([pageSize]byte)
			*cp = *p
			c.pages[pn] = cp
		}
	}
	return c
}

// Image is a frozen page set produced by Snapshot. It backs any number of
// copy-on-write forks; the pages themselves are never written again, so
// concurrent forks may read them without synchronization.
type Image struct {
	pages map[uint32]*[pageSize]byte
}

// Snapshot freezes the memory's current contents into an Image and turns m
// itself into a copy-on-write overlay over it, so the snapshotted state
// stays intact even if m keeps executing. The operation is O(pages), not
// O(bytes): no page data is copied.
func (m *Memory) Snapshot() *Image {
	flat := make(map[uint32]*[pageSize]byte, len(m.base)+len(m.pages))
	for pn, p := range m.base {
		flat[pn] = p
	}
	for pn, p := range m.pages {
		flat[pn] = p
	}
	m.base = flat
	m.pages = make(map[uint32]*[pageSize]byte)
	return &Image{pages: flat}
}

// Fork returns an independent Memory whose initial contents are the image.
// Pages are shared copy-on-write, so a fork is O(1) and forks never observe
// each other's writes. This is what lets a fault-injection campaign branch
// thousands of experiments off one golden-run checkpoint.
func (img *Image) Fork() *Memory {
	return &Memory{pages: make(map[uint32]*[pageSize]byte), base: img.pages}
}

// ForkInto makes m a fork of the image in place — Fork without the
// allocations: m keeps its page map, and the private pages of its last
// run (never shared: Snapshot hands the ones it freezes to the image) are
// taken back for the next run to dirty.
func (img *Image) ForkInto(m *Memory) {
	for _, p := range m.pages {
		m.free = append(m.free, p)
	}
	clear(m.pages)
	m.base = img.pages
}

// String summarizes the mapped pages.
func (m *Memory) String() string {
	private := len(m.pages)
	shared := 0
	for pn := range m.base {
		if _, own := m.pages[pn]; !own {
			shared++
		}
	}
	if shared > 0 {
		return fmt.Sprintf("mem{%d pages, %d shared}", private+shared, shared)
	}
	return fmt.Sprintf("mem{%d pages}", private)
}
