package mem

import (
	"sync"
	"testing"
)

func TestSnapshotForkIsolation(t *testing.T) {
	m := NewMemory()
	m.Write32(RAMBase, 0x11111111)
	m.Write32(RAMBase+pageSize, 0x22222222)
	img := m.Snapshot()

	// The parent keeps running; the image and its forks must not see it.
	m.Write32(RAMBase, 0xdeadbeef)

	a := img.Fork()
	b := img.Fork()
	if got := a.Read32(RAMBase); got != 0x11111111 {
		t.Fatalf("fork saw parent write: %08x", got)
	}

	// Forks never observe each other's writes.
	a.Write32(RAMBase, 0xaaaaaaaa)
	if got := b.Read32(RAMBase); got != 0x11111111 {
		t.Fatalf("fork b saw fork a's write: %08x", got)
	}
	if got := a.Read32(RAMBase + pageSize); got != 0x22222222 {
		t.Fatalf("untouched shared page corrupted: %08x", got)
	}

	// The parent still sees its own post-snapshot write.
	if got := m.Read32(RAMBase); got != 0xdeadbeef {
		t.Fatalf("parent lost post-snapshot write: %08x", got)
	}
}

func TestForkSubByteWritesCopyPage(t *testing.T) {
	m := NewMemory()
	m.Write32(RAMBase, 0x01020304)
	img := m.Snapshot()
	f := img.Fork()
	f.Write8(RAMBase+1, 0xee)
	if got := f.Read32(RAMBase); got != 0x01ee0304 {
		t.Fatalf("fork byte write = %08x", got)
	}
	if got := img.Fork().Read32(RAMBase); got != 0x01020304 {
		t.Fatalf("image mutated by fork: %08x", got)
	}
}

func TestCloneFlattensOverlay(t *testing.T) {
	m := NewMemory()
	m.Write32(RAMBase, 1)
	img := m.Snapshot()
	f := img.Fork()
	f.Write32(RAMBase+4, 2)
	c := f.Clone()
	if c.Read32(RAMBase) != 1 || c.Read32(RAMBase+4) != 2 {
		t.Fatal("clone lost a layer")
	}
	c.Write32(RAMBase, 9)
	if f.Read32(RAMBase) != 1 {
		t.Fatal("clone aliases the fork")
	}
}

func TestConcurrentForksRace(t *testing.T) {
	m := NewMemory()
	for i := uint32(0); i < 16; i++ {
		m.Write32(RAMBase+4*i, i)
	}
	img := m.Snapshot()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f := img.Fork()
			for i := uint32(0); i < 16; i++ {
				got := f.Read32(RAMBase + 4*i)
				if got != i {
					t.Errorf("worker %d read %d, want %d", w, got, i)
					return
				}
				f.Write32(RAMBase+4*i, got+uint32(w))
			}
		}(w)
	}
	wg.Wait()
}

// TestForkIntoRecyclesPages: a memory re-pointed at an image reads the
// image and nothing of its last run — a recycled page comes back as the
// image's, or zero where the image maps nothing — never writes through to
// an image, and at steady state allocates nothing.
func TestForkIntoRecyclesPages(t *testing.T) {
	m := NewMemory()
	m.Write32(RAMBase, 0x11111111)
	img := m.Snapshot()
	m.Write32(RAMBase, 0x22222222)
	later := m.Snapshot()

	f := img.Fork()
	run := func() {
		f.Write32(RAMBase+8, 0xaaaaaaaa)          // a page the images map
		f.Write32(RAMBase+8*pageSize, 0xbbbbbbbb) // one they do not
	}
	run()
	later.ForkInto(f)
	if a, b, c := f.Read32(RAMBase), f.Read32(RAMBase+8), f.Read32(RAMBase+8*pageSize); a != 0x22222222 || b != 0 || c != 0 {
		t.Fatalf("re-pointed memory reads %08x %08x %08x, want the later image and no earlier write", a, b, c)
	}
	f.Write32(RAMBase+8*pageSize+4, 1)
	if got := f.Read32(RAMBase + 8*pageSize); got != 0 {
		t.Fatalf("a recycled page kept %08x of its last run", got)
	}
	f.Write32(RAMBase, 0x33333333)
	if a, b := img.Fork().Read32(RAMBase), later.Fork().Read32(RAMBase); a != 0x11111111 || b != 0x22222222 {
		t.Fatalf("images read %08x and %08x after a fork's write", a, b)
	}
	if allocs := testing.AllocsPerRun(10, func() { img.ForkInto(f); run() }); allocs != 0 {
		t.Errorf("%v allocations per re-point and run", allocs)
	}
}
