package workloads

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/mem"
)

func assembleForTest(src string) (*asm.Program, error) {
	return asm.Assemble(src, mem.RAMBase)
}

// runISS executes a workload on the functional emulator.
func runISS(t *testing.T, w *Workload, budget uint64) *iss.CPU {
	t.Helper()
	bus := mem.NewBus(w.NewMemory())
	c := iss.New(bus, w.Program.Entry)
	st := c.Run(budget)
	if st != iss.StatusExited {
		t.Fatalf("%s: status %v (trap %#x) after %d insts", w.Name, st, c.TrapTaken(), c.Icount)
	}
	return c
}

func TestAllWorkloadsAssembleAndRun(t *testing.T) {
	for _, name := range Names() {
		w, err := Get(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c := runISS(t, w, 5_000_000)
		t.Logf("%-10s total=%7d mem=%6d diversity=%2d writes=%5d",
			name, c.Icount, c.MemoryInstCount(), c.Diversity(), len(c.Bus.Trace.Writes))
		if c.Icount < 100 {
			t.Errorf("%s: suspiciously short run (%d insts)", name, c.Icount)
		}
		if len(c.Bus.Trace.Writes) < 2 {
			t.Errorf("%s: produced almost no off-core writes", name)
		}
	}
}

func TestDiversityMatchesPaperBands(t *testing.T) {
	// Table 1: automotive 47-48 types, membench 18, intbench 20. We
	// require the same bands rather than exact equality: a broad common
	// plateau for automotive and a clearly separated low band for the
	// synthetics.
	for _, name := range AutomotiveNames() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := runISS(t, w, 5_000_000)
		if d := c.Diversity(); d < 40 || d > 55 {
			t.Errorf("%s: diversity %d outside automotive band [40,55]", name, d)
		}
	}
	for _, name := range SyntheticNames() {
		w, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		c := runISS(t, w, 5_000_000)
		if d := c.Diversity(); d < 12 || d > 26 {
			t.Errorf("%s: diversity %d outside synthetic band [12,26]", name, d)
		}
	}
}

func TestExcerptDiversity(t *testing.T) {
	// Figure 3: subset A uses 8 instruction types, subset B 11.
	for ds := 0; ds < 3; ds++ {
		wa, err := Build("excerptA", Config{Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		ca := runISS(t, wa, 100000)
		if d := ca.Diversity(); d != 8 {
			t.Errorf("excerptA/%d: diversity %d, want 8", ds, d)
		}
		wb, err := Build("excerptB", Config{Dataset: ds})
		if err != nil {
			t.Fatal(err)
		}
		cb := runISS(t, wb, 100000)
		if d := cb.Diversity(); d != 11 {
			t.Errorf("excerptB/%d: diversity %d, want 11", ds, d)
		}
	}
}

func TestExcerptDatasetsChangeDataNotCode(t *testing.T) {
	w0, _ := Build("excerptA", Config{Dataset: 0})
	w1, _ := Build("excerptA", Config{Dataset: 1})
	if w0.Source == w1.Source {
		t.Fatal("datasets 0 and 1 produced identical sources")
	}
	// The code region (up to the data label) must be identical.
	c0 := runISS(t, w0, 100000)
	c1 := runISS(t, w1, 100000)
	if c0.Diversity() != c1.Diversity() {
		t.Errorf("same code, different diversity: %d vs %d", c0.Diversity(), c1.Diversity())
	}
	if c0.Bus.Out()[0] == c1.Bus.Out()[0] {
		t.Error("different data produced identical signatures")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	w1, err := Get("canrdr")
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Get("canrdr")
	if err != nil {
		t.Fatal(err)
	}
	if string(w1.Program.Image) != string(w2.Program.Image) {
		t.Fatal("two builds of the same workload differ")
	}
	c1 := runISS(t, w1, 5_000_000)
	c2 := runISS(t, w2, 5_000_000)
	if c1.Icount != c2.Icount {
		t.Errorf("icount differs: %d vs %d", c1.Icount, c2.Icount)
	}
	if d := c1.Bus.Trace.Divergence(&c2.Bus.Trace); d != -1 {
		t.Errorf("off-core traces diverge at %d", d)
	}
}

func TestIterationScaling(t *testing.T) {
	// Doubling iterations must roughly double the executed instructions
	// (Figure 4 depends on this parameter).
	w2, err := Build("rspeed", Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	w4, err := Build("rspeed", Config{Iterations: 4})
	if err != nil {
		t.Fatal(err)
	}
	c2 := runISS(t, w2, 5_000_000)
	c4 := runISS(t, w4, 5_000_000)
	ratio := float64(c4.Icount) / float64(c2.Icount)
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("4/2 iteration instruction ratio = %.2f, want ~2", ratio)
	}
	// Same instruction-type set regardless of iterations.
	if c2.Diversity() != c4.Diversity() {
		t.Errorf("diversity changed with iterations: %d vs %d", c2.Diversity(), c4.Diversity())
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := Get("no-such-benchmark"); err == nil {
		t.Fatal("expected error for unknown workload")
	}
	if Known("no-such-benchmark") || Known("") {
		t.Error("Known accepts a name the registry lacks")
	}
	for _, n := range Names() {
		if !Known(n) {
			t.Errorf("Known(%q) = false for a listed workload", n)
		}
	}
}

func TestTable1NamesExist(t *testing.T) {
	for _, n := range Table1Names() {
		if _, err := Get(n); err != nil {
			t.Errorf("%s: %v", n, err)
		}
	}
}

func TestWindowSpillFillUnderDeepCalls(t *testing.T) {
	// The full runtime's call chain (harness -> main) is shallow, but the
	// spill/fill handlers must still be exercised somewhere: build a
	// dedicated deep-recursion program on the same runtime.
	src := fullRuntime(`
	save %sp, -96, %sp
	mov 12, %o0            ! depth > NWindows forces spills and fills
	call rec
	nop
	mov %o0, %i0
	ret
	restore
rec:
	save %sp, -96, %sp
	cmp %i0, 0
	be rec_base
	nop
	sub %i0, 1, %o0
	call rec
	nop
	add %o0, 1, %i0        ! rebuild the count on the way out
	ret
	restore
rec_base:
	clr %i0
	ret
	restore
`, "\t.word 0\n"+stack(512), 1)
	p, err := assembleForTest(src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	c := iss.New(mem.NewBus(m), p.Entry)
	if st := c.Run(1_000_000); st != iss.StatusExited {
		t.Fatalf("status %v (trap %#x)", st, c.TrapTaken())
	}
	if got := c.Bus.ExitCode(); got != 12 {
		t.Errorf("recursion result = %d, want 12", got)
	}
}
