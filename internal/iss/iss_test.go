package iss

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/mem"
	"repro/internal/sparc"
)

// run assembles src at the RAM base, executes it and returns the CPU.
func run(t *testing.T, src string, maxInsts uint64) *CPU {
	t.Helper()
	p, err := asm.Assemble(src, mem.RAMBase)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	c := New(mem.NewBus(m), p.Entry)
	c.Run(maxInsts)
	return c
}

// exitWrapper surrounds a code fragment with the standard exit sequence.
const exitWrapper = `
start:
%s
	set 0x90000000, %%l7   ! ExitAddr
	st %%g0, [%%l7]
	nop
`

func runFrag(t *testing.T, frag string) *CPU {
	t.Helper()
	c := run(t, fmt.Sprintf(exitWrapper, frag), 100000)
	if c.Status() != StatusExited {
		t.Fatalf("status = %v, want exited (cpu %v)", c.Status(), c)
	}
	return c
}

func TestArithmeticBasics(t *testing.T) {
	c := runFrag(t, `
	mov 10, %o0
	mov 3, %o1
	add %o0, %o1, %o2    ! 13
	sub %o0, %o1, %o3    ! 7
	and %o0, %o1, %o4    ! 2
	or  %o0, %o1, %o5    ! 11
	xor %o0, %o1, %l0    ! 9
	sll %o0, 2, %l1      ! 40
	srl %o0, 1, %l2      ! 5
	mov -8, %l3
	sra %l3, 2, %l3      ! -2
`)
	want := map[int]uint32{
		10: 13, 11: 7, 12: 2, 13: 11, 16: 9, 17: 40, 18: 5, 19: 0xfffffffe,
	}
	for r, v := range want {
		if got := c.Reg(r); got != v {
			t.Errorf("%s = %#x, want %#x", sparc.RegName(r), got, v)
		}
	}
}

func TestG0AlwaysZero(t *testing.T) {
	c := runFrag(t, `
	mov 99, %g0
	add %g0, 0, %o0
`)
	if c.Reg(8) != 0 {
		t.Errorf("g0 leaked value: %d", c.Reg(8))
	}
}

func TestConditionCodesAndBranches(t *testing.T) {
	// Sum 1..10 with a loop: tests subcc/bne and delayed branching.
	c := runFrag(t, `
	mov 10, %o0
	clr %o1
loop:
	add %o1, %o0, %o1
	subcc %o0, 1, %o0
	bne loop
	nop
`)
	if got := c.Reg(9); got != 55 {
		t.Errorf("sum = %d, want 55", got)
	}
}

func TestAnnulledDelaySlot(t *testing.T) {
	// bne,a: delay slot executes only when the branch is taken.
	c := runFrag(t, `
	mov 3, %o0
	clr %o1
loop:
	subcc %o0, 1, %o0
	bne,a loop
	add %o1, 1, %o1    ! executed twice (taken twice), annulled on exit
	mov 77, %o2
`)
	if got := c.Reg(9); got != 2 {
		t.Errorf("annulled-slot counter = %d, want 2", got)
	}
	if got := c.Reg(10); got != 77 {
		t.Errorf("fallthrough inst lost: %d", got)
	}
}

func TestBaAnnulSkipsDelay(t *testing.T) {
	c := runFrag(t, `
	clr %o0
	ba,a over
	mov 1, %o0    ! must be annulled
over:
`)
	if c.Reg(8) != 0 {
		t.Error("ba,a executed its delay slot")
	}
}

func TestCallRetAndWindows(t *testing.T) {
	c := runFrag(t, `
	mov 5, %o0
	call double
	nop
	mov %o0, %l0        ! result visible in caller's window
	ba done
	nop
double:
	save %sp, -96, %sp
	add %i0, %i0, %i0   ! result in callee's in = caller's out
	ret
	restore
done:
`)
	if got := c.Reg(16); got != 10 {
		t.Errorf("double(5) = %d, want 10", got)
	}
}

func TestWindowOverlapSemantics(t *testing.T) {
	// outs of caller == ins of callee after save; restore's result lands
	// in the restored-to (old) window.
	c := runFrag(t, `
	set 0x1234, %o3
	save %sp, -96, %sp
	add %i3, 1, %o5     ! write an out in the new window
	restore %o5, 0, %o4 ! restore's result lands in the old window's %o4
`)
	if got := c.Reg(12); got != 0x1235 {
		t.Errorf("restore result = %#x, want 0x1235", got)
	}
	if got := c.Reg(11); got != 0x1234 {
		t.Errorf("caller %%o3 = %#x, want 0x1234", got)
	}
}

func TestWindowTrapMechanics(t *testing.T) {
	// Without a handler, overflowing while ET=1 vectors through TBR; with
	// TBR=0 and empty memory the handler is a stream of OpUnknown -> the
	// second trap (illegal, ET=0) halts in error mode.
	c := run(t, `
start:
	save %sp, -96, %sp
	save %sp, -96, %sp
	save %sp, -96, %sp
	save %sp, -96, %sp
	save %sp, -96, %sp
	save %sp, -96, %sp
	save %sp, -96, %sp   ! 7th save hits the WIM-invalid window
	nop
`, 1000)
	if c.Status() != StatusErrorMode {
		t.Fatalf("status = %v, want error-mode", c.Status())
	}
	if c.OpCounts[sparc.OpSAVE] != 6 {
		t.Errorf("completed saves = %d, want 6", c.OpCounts[sparc.OpSAVE])
	}
}

func TestLoadsAndStores(t *testing.T) {
	c := runFrag(t, `
	set data, %o0
	ld  [%o0], %o1
	ldub [%o0], %o2
	ldsb [%o0+4], %o3
	lduh [%o0+2], %o4
	ldsh [%o0+4], %o5
	st  %o1, [%o0+8]
	sth %o1, [%o0+12]
	stb %o1, [%o0+14]
	ba skipdata
	nop
data:
	.word 0x8091a2b3, 0xfffe0000
	.word 0, 0
skipdata:
	set data, %l0
	ld [%l0+8], %l1
	ld [%l0+12], %l2
`)
	if got := c.Reg(9); got != 0x8091a2b3 {
		t.Errorf("ld = %#x", got)
	}
	if got := c.Reg(10); got != 0x80 {
		t.Errorf("ldub = %#x", got)
	}
	if got := c.Reg(11); got != 0xffffffff {
		t.Errorf("ldsb = %#x, want sign-extended -1", got)
	}
	if got := c.Reg(12); got != 0xa2b3 {
		t.Errorf("lduh = %#x", got)
	}
	if got := c.Reg(13); got != 0xfffffffe {
		t.Errorf("ldsh = %#x", got)
	}
	if got := c.Reg(17); got != 0x8091a2b3 {
		t.Errorf("st roundtrip = %#x", got)
	}
	if got := c.Reg(18); got != 0xa2b30000|0xb3<<8 {
		// sth wrote 0xa2b3 at +12, stb wrote 0xb3 at +14.
		t.Errorf("sth/stb = %#x", got)
	}
}

func TestLddStd(t *testing.T) {
	c := runFrag(t, `
	set buf, %o0
	mov 0x111, %o2
	mov 0x222, %o3
	std %o2, [%o0]
	ldd [%o0], %o4
	ba over
	nop
	.align 8
buf:
	.word 0, 0
over:
`)
	if c.Reg(12) != 0x111 || c.Reg(13) != 0x222 {
		t.Errorf("ldd = %#x, %#x", c.Reg(12), c.Reg(13))
	}
}

func TestLdstubSwap(t *testing.T) {
	c := runFrag(t, `
	set cell, %o0
	ldstub [%o0], %o1   ! o1 = 0xab, cell = 0xff
	ldub [%o0], %o2
	mov 7, %o3
	swap [%o0+4], %o3   ! o3 = 0x77665544, cell+4 = 7
	ld [%o0+4], %o4
	ba over
	nop
cell:
	.word 0xab000000, 0x77665544
over:
`)
	if c.Reg(9) != 0xab || c.Reg(10) != 0xff {
		t.Errorf("ldstub: %#x %#x", c.Reg(9), c.Reg(10))
	}
	if c.Reg(11) != 0x77665544 || c.Reg(12) != 7 {
		t.Errorf("swap: %#x %#x", c.Reg(11), c.Reg(12))
	}
}

func TestMulDiv(t *testing.T) {
	c := runFrag(t, `
	mov 1000, %o0
	mov 3000, %o1
	umul %o0, %o1, %o2   ! 3,000,000
	rd %y, %o3           ! 0
	mov -4, %o4
	smul %o4, %o1, %o5   ! -12000
	rd %y, %l0           ! sign bits
	wr %g0, %y
	mov 100, %l1
	udiv %l1, 7, %l2     ! 14
	mov -100, %l3
	wr %l3, %y           ! broken dividend? set Y to all ones via sra
	sra %l3, 31, %l4
	wr %l4, %y
	sdiv %l3, 7, %l5     ! -14
`)
	if c.Reg(10) != 3000000 || c.Reg(11) != 0 {
		t.Errorf("umul = %d Y=%d", c.Reg(10), c.Reg(11))
	}
	if got := int32(c.Reg(13)); got != -12000 {
		t.Errorf("smul = %d", got)
	}
	if c.Reg(16) != 0xffffffff {
		t.Errorf("smul Y = %#x", c.Reg(16))
	}
	if c.Reg(18) != 14 {
		t.Errorf("udiv = %d", c.Reg(18))
	}
	if got := int32(c.Reg(21)); got != -14 {
		t.Errorf("sdiv = %d", got)
	}
}

func TestDivisionByZeroTrapsToErrorMode(t *testing.T) {
	c := run(t, `
start:
	mov 1, %o0
	udiv %o0, %g0, %o1
`, 1000)
	// TBR=0 -> vector lands on 'start' again? TBR points at 0x40000000?
	// TBR resets to 0, which is unmapped (reads zero -> OpUnknown ->
	// illegal trap with ET=0 -> error mode).
	if c.Status() != StatusErrorMode {
		t.Fatalf("status = %v, want error-mode", c.Status())
	}
	if c.TrapTaken() != TrapIllegalInst && c.TrapTaken() != TrapDivByZero {
		t.Errorf("trap = %#x", c.TrapTaken())
	}
}

func TestMulsccMatchesSmul(t *testing.T) {
	// The canonical V8 32-step multiply using mulscc must agree with smul
	// for non-negative multipliers.
	src := `
	mov 1234, %o0        ! multiplicand (rs1 operand source)
	set 56789, %o1       ! multiplier
	wr %o1, %y
	andcc %g0, %g0, %o4  ! clear partial product and icc
` + strings.Repeat("\tmulscc %o4, %o0, %o4\n", 32) + `
	mulscc %o4, %g0, %o4 ! final shift
	rd %y, %o5           ! low 32 bits of the product
	smul %o0, %o1, %l0   ! reference
`
	c := runFrag(t, src)
	if got, want := c.Reg(13), c.Reg(16); got != want {
		t.Errorf("mulscc product low = %d, smul = %d", got, want)
	}
}

func TestTaTrapVectorsThroughTBR(t *testing.T) {
	c := run(t, `
start:
	set table, %g1
	wr %g1, %tbr
	ta 3
	nop
after:
	set 0x90000000, %l7
	st %g0, [%l7]
	nop
	.align 4096
table:
	.org table+0x830     ! tt = 0x83 -> offset 0x83*16
	! handler: return to the instruction after ta
	jmpl %l2, %g0        ! l2 = npc of the ta
	rett %l2+4
`, 100000)
	if c.Status() != StatusExited {
		t.Fatalf("status = %v trap=%#x cpu=%v", c.Status(), c.TrapTaken(), c)
	}
	if c.TrapTaken() != 0x83 {
		t.Errorf("tt = %#x, want 0x83", c.TrapTaken())
	}
}

func TestAlignmentTrap(t *testing.T) {
	c := run(t, `
start:
	set 0x40000002, %o0
	ld [%o0], %o1
`, 1000)
	if c.Status() != StatusErrorMode {
		t.Fatalf("status = %v", c.Status())
	}
}

func TestSethiAndSetBuildConstants(t *testing.T) {
	c := runFrag(t, `
	set 0xdeadbeef, %o0
	sethi %hi(0xcafe0000), %o1
`)
	if c.Reg(8) != 0xdeadbeef {
		t.Errorf("set = %#x", c.Reg(8))
	}
	if c.Reg(9) != 0xcafe0000 {
		t.Errorf("sethi = %#x", c.Reg(9))
	}
}

func TestPSRReadWrite(t *testing.T) {
	c := runFrag(t, `
	rd %psr, %o0
	or %o0, 0x20, %o1    ! keep ET set
	wr %o1, 0, %psr
	rd %psr, %o2
`)
	if c.Reg(10)&0x80 == 0 {
		t.Error("supervisor bit lost")
	}
	if sup := PSRFromBits(c.Reg(8)); !sup.S || !sup.ET {
		t.Errorf("initial psr = %#x", c.Reg(8))
	}
}

func TestOffCoreTraceAndExit(t *testing.T) {
	c := runFrag(t, `
	set 0x40001000, %o0
	mov 0x11, %o1
	st %o1, [%o0]
	sth %o1, [%o0+4]
	set 0x90000004, %o2  ! OutAddr
	st %o1, [%o2]
`)
	tr := c.Bus.Trace
	if !tr.Exited || tr.ExitCode != 0 {
		t.Fatalf("exit = %v code %d", tr.Exited, tr.ExitCode)
	}
	// 3 explicit writes + 1 exit write.
	if len(tr.Writes) != 4 {
		t.Fatalf("writes = %d: %v", len(tr.Writes), tr.Writes)
	}
	if out := c.Bus.Out(); len(out) != 1 || out[0] != 0x11 {
		t.Errorf("out port = %v", out)
	}
}

// TestTextFetchesStoredWord holds a predecoded text to memory: a program
// that stores a new instruction over its own next word and executes it runs
// the same under UseText as with no text — the stored word is fetched and
// decoded again, not taken from the table.
func TestTextFetchesStoredWord(t *testing.T) {
	p, err := asm.Assemble(`
start:
	set fresh, %l1
	ld [%l1], %l2
	set patch, %l0
	st %l2, [%l0]          ! over the next word
patch:
	mov 1, %o0             ! by then: mov 7, %o0
	set 0x90000000, %l7
	st %o0, [%l7]          ! exit with %o0
	nop
	.align 8
fresh:
	mov 7, %o0
`, mem.RAMBase)
	if err != nil {
		t.Fatal(err)
	}
	type step struct {
		pc uint32
		in sparc.Inst
	}
	exec := func(text *Text) (*CPU, []step) {
		m := mem.NewMemory()
		m.LoadImage(p.Origin, p.Image)
		c := New(mem.NewBus(m), p.Entry)
		if text != nil {
			c.UseText(text)
		}
		var steps []step
		c.OnInst = func(pc uint32, in sparc.Inst) { steps = append(steps, step{pc, in}) }
		if st := c.Run(1000); st != StatusExited {
			t.Fatalf("status %v", st)
		}
		return c, steps
	}
	plain, want := exec(nil)
	if plain.Bus.ExitCode() != 7 {
		t.Fatalf("exit code %d without a text: the stored instruction was not executed", plain.Bus.ExitCode())
	}
	text := Predecode(p.Origin, p.Image)
	if patch := (p.Symbols["patch"] - p.Origin) / 4; text.Insts[patch].Op == sparc.OpUnknown {
		t.Fatalf("the patched word is struck out of the text: the test would not reach the table")
	}
	c, got := exec(text)
	same := slices.Equal(got, want)
	if !same || c.Icount != plain.Icount || c.Bus.ExitCode() != plain.Bus.ExitCode() ||
		!slices.Equal(c.Bus.Trace.Writes, plain.Bus.Trace.Writes) {
		t.Errorf("under a text: %d instructions, exit %d, writes %v (same instructions: %v); want %d, exit %d, writes %v",
			c.Icount, c.Bus.ExitCode(), c.Bus.Trace.Writes, same, plain.Icount, plain.Bus.ExitCode(), plain.Bus.Trace.Writes)
	}
}

func TestDiversityCounting(t *testing.T) {
	c := runFrag(t, `
	mov 1, %o0        ! or
	add %o0, 1, %o1
	sll %o1, 1, %o2
	umul %o2, 3, %o3
`)
	// Executed types: sethi(set/nop), or, add, sll, umul, st, ba?, jmpl?...
	// At minimum the four explicit ones are present.
	for _, op := range []sparc.Op{sparc.OpOR, sparc.OpADD, sparc.OpSLL, sparc.OpUMUL, sparc.OpST} {
		if c.OpCounts[op] == 0 {
			t.Errorf("op %v not counted", op)
		}
	}
	if c.Diversity() < 5 {
		t.Errorf("diversity = %d", c.Diversity())
	}
	ud := c.UnitDiversity()
	if ud[sparc.UnitFetch] != c.Diversity() {
		t.Errorf("fetch diversity %d != total %d", ud[sparc.UnitFetch], c.Diversity())
	}
	if ud[sparc.UnitMulDiv] != 1 {
		t.Errorf("muldiv diversity = %d, want 1", ud[sparc.UnitMulDiv])
	}
}

func TestRunBudget(t *testing.T) {
	c := run(t, "start:\n\tba start\n\tnop\n", 100)
	if c.Status() != StatusBudget {
		t.Errorf("status = %v, want budget", c.Status())
	}
}

func TestPhysIndexWindowOverlap(t *testing.T) {
	// outs of window w must alias ins of window w-1.
	for w := uint8(0); w < NWindows; w++ {
		for i := 0; i < 8; i++ {
			outs := physIndex(w, 8+i)
			ins := physIndex((w+NWindows-1)%NWindows, 24+i)
			if outs != ins {
				t.Errorf("window %d out%d phys %d != next-in phys %d", w, i, outs, ins)
			}
		}
		// locals are private.
		for w2 := uint8(0); w2 < NWindows; w2++ {
			if w == w2 {
				continue
			}
			for i := 16; i < 24; i++ {
				if physIndex(w, i) == physIndex(w2, i) {
					t.Errorf("locals of windows %d and %d collide", w, w2)
				}
			}
		}
	}
}
