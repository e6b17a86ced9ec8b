// Package iss implements the functional emulator part of a SPARC V8
// instruction set simulator (the "ISS" of the reproduced paper): an exact
// architectural-state interpreter with register windows, PSR/WIM/TBR/Y,
// delayed control transfer, traps and the full V8 integer instruction set.
//
// The emulator keeps per-instruction-type execution counts, from which the
// instruction-diversity metric is computed (internal/diversity), and
// records its off-core write trace (internal/mem) which serves as the
// golden reference for RTL fault-injection experiments.
package iss

import (
	"encoding/binary"
	"fmt"

	"repro/internal/mem"
	"repro/internal/sparc"
)

// NWindows is the number of register windows, matching the default LEON3
// configuration.
const NWindows = 8

// Trap types (SPARC V8 tt values).
const (
	TrapReset           = 0x00
	TrapIllegalInst     = 0x02
	TrapPrivilegedInst  = 0x03
	TrapWindowOverflow  = 0x05
	TrapWindowUnderflow = 0x06
	TrapMemNotAligned   = 0x07
	TrapTagOverflow     = 0x0a
	TrapDivByZero       = 0x2a
	TrapInstBase        = 0x80 // ta N traps to 0x80+N
)

// PSR holds the processor state register fields relevant to the IU.
type PSR struct {
	ICC sparc.CC
	EC  bool  // coprocessor enable (unused, kept for wrpsr fidelity)
	EF  bool  // FPU enable (unused)
	PIL uint8 // processor interrupt level
	S   bool  // supervisor
	PS  bool  // previous supervisor
	ET  bool  // enable traps
	CWP uint8 // current window pointer
}

// Bits packs the PSR into its architectural encoding.
func (p PSR) Bits() uint32 {
	v := uint32(0x00f<<24) | p.ICC.Bits()<<20 // impl/ver fields fixed
	if p.EC {
		v |= 1 << 13
	}
	if p.EF {
		v |= 1 << 12
	}
	v |= uint32(p.PIL&0xf) << 8
	if p.S {
		v |= 1 << 7
	}
	if p.PS {
		v |= 1 << 6
	}
	if p.ET {
		v |= 1 << 5
	}
	v |= uint32(p.CWP) & 0x1f
	return v
}

// PSRFromBits unpacks an architectural PSR value.
func PSRFromBits(v uint32) PSR {
	return PSR{
		ICC: sparc.CCFromBits(v >> 20 & 0xf),
		EC:  v&(1<<13) != 0,
		EF:  v&(1<<12) != 0,
		PIL: uint8(v >> 8 & 0xf),
		S:   v&(1<<7) != 0,
		PS:  v&(1<<6) != 0,
		ET:  v&(1<<5) != 0,
		CWP: uint8(v & 0x1f % NWindows),
	}
}

// Status is the terminal state of a run.
type Status int

// Run outcomes.
const (
	StatusRunning   Status = iota
	StatusExited           // program wrote ExitAddr
	StatusErrorMode        // trap taken while ET=0 (processor error mode)
	StatusBudget           // instruction budget exhausted
)

func (s Status) String() string {
	switch s {
	case StatusRunning:
		return "running"
	case StatusExited:
		return "exited"
	case StatusErrorMode:
		return "error-mode"
	case StatusBudget:
		return "budget-exhausted"
	}
	return "status?"
}

// CPU is the architectural state of the functional emulator.
type CPU struct {
	Bus *mem.Bus

	PC, NPC uint32
	PSR     PSR
	WIM     uint32
	TBR     uint32
	Y       uint32

	g  [8]uint32             // global registers (g0 always reads zero)
	rf [NWindows * 16]uint32 // windowed registers: ins+locals per window

	annul bool // next instruction is annulled

	// Icount is the number of executed (non-annulled) instructions.
	Icount uint64
	// Annulled counts annulled delay slots (they consume a pipeline slot
	// but are not executed).
	Annulled uint64
	// OpCounts is the per-instruction-type execution histogram from which
	// diversity is computed.
	OpCounts [sparc.NumOps]uint64

	// OnInst, when non-nil, observes every executed instruction.
	OnInst func(pc uint32, in sparc.Inst)

	// text, when non-nil, is the program image decoded once (UseText). It
	// travels with a copy of the CPU value, as the rest of the state does.
	text *Text

	status   Status
	trapType uint8
	trapped  bool // current instruction raised a trap
}

// Text is a program image decoded once: Insts[i] is the word at Base+4i.
// It is read-only from the moment a CPU uses it, so any number of CPUs —
// the forks of a fault-injection campaign — share one. An entry with Op ==
// sparc.OpUnknown is not trusted: Step fetches and decodes that word from
// memory, which lets a caller strike out words (zero the entry) whose
// memory no longer holds what the image did.
type Text struct {
	Base  uint32
	Insts []sparc.Inst
}

// Predecode decodes every whole word of a big-endian image loaded at base
// (none of an image that is not word-aligned: no PC addresses its words).
func Predecode(base uint32, image []byte) *Text {
	if base&3 != 0 {
		image = nil
	}
	t := &Text{Base: base, Insts: make([]sparc.Inst, len(image)/4)}
	for i := range t.Insts {
		t.Insts[i] = sparc.Decode(binary.BigEndian.Uint32(image[4*i:]))
	}
	return t
}

// at returns the decoded instruction at pc when t vouches for it: pc lies in
// the image, the entry is not struck out — data or an undefined word decode
// to OpUnknown too — and no store of this run, which bus tracks, has touched
// the word. A nil Text vouches for nothing.
func (t *Text) at(pc uint32, bus *mem.Bus) *sparc.Inst {
	if t == nil {
		return nil
	}
	if i := (pc - t.Base) / 4; pc >= t.Base && i < uint32(len(t.Insts)) &&
		t.Insts[i].Op != sparc.OpUnknown && !bus.Stored(i) {
		return &t.Insts[i]
	}
	return nil
}

// UseText makes Step take its instructions from t wherever memory still
// holds what t was decoded from: the bus tracks stores into t's range from
// here on (mem.Bus.TrackStores; Bus.Reset forgets them), and a stored word
// is fetched and decoded again. The memory under the bus must hold t's
// image, except at words t has struck out.
func (c *CPU) UseText(t *Text) {
	c.text = t
	c.Bus.TrackStores(t.Base, len(t.Insts))
}

// New returns a CPU in the post-reset state, executing from entry in
// supervisor mode with traps enabled and all windows free except the
// current one's invalid mask cleared.
func New(bus *mem.Bus, entry uint32) *CPU {
	c := &CPU{Bus: bus}
	c.Reset(entry)
	return c
}

// Reset restores the post-reset architectural state.
func (c *CPU) Reset(entry uint32) {
	c.PC = entry
	c.NPC = entry + 4
	// Start in the highest window with window 0 marked invalid, so that
	// NWindows-2 nested saves are available before a spill trap.
	c.PSR = PSR{S: true, ET: true, CWP: NWindows - 1}
	c.WIM = 1
	c.TBR = 0
	c.Y = 0
	c.g = [8]uint32{}
	c.rf = [NWindows * 16]uint32{}
	c.annul = false
	c.Icount = 0
	c.Annulled = 0
	c.OpCounts = [sparc.NumOps]uint64{}
	c.status = StatusRunning
}

// physIndex maps architectural register r (8..31) of window w to its slot
// in rf. Each window owns 16 slots: its 8 ins followed by its 8 locals.
// The outs of window w are the ins of window (w-1) mod NWindows, which is
// the window SAVE switches to.
func physIndex(w uint8, r int) int {
	switch {
	case r < 16: // outs
		return int((w+NWindows-1)%NWindows)*16 + (r - 8)
	case r < 24: // locals
		return int(w)*16 + 8 + (r - 16)
	default: // ins
		return int(w)*16 + (r - 24)
	}
}

// Reg reads architectural register r in the current window.
func (c *CPU) Reg(r int) uint32 {
	if r < 8 {
		if r == 0 {
			return 0
		}
		return c.g[r]
	}
	return c.rf[physIndex(c.PSR.CWP, r)]
}

// SetReg writes architectural register r in the current window.
func (c *CPU) SetReg(r int, v uint32) {
	if r < 8 {
		if r != 0 {
			c.g[r] = v
		}
		return
	}
	c.rf[physIndex(c.PSR.CWP, r)] = v
}

// RegInWindow reads register r as seen from window w (used by tests and by
// the RTL lockstep checker).
func (c *CPU) RegInWindow(w uint8, r int) uint32 {
	if r < 8 {
		if r == 0 {
			return 0
		}
		return c.g[r]
	}
	return c.rf[physIndex(w, r)]
}

// Status returns the terminal status of the CPU.
func (c *CPU) Status() Status { return c.status }

// TrapTaken returns the tt value of the trap that put the CPU in error
// mode, if Status() == StatusErrorMode.
func (c *CPU) TrapTaken() uint8 { return c.trapType }

// Diversity returns the number of distinct instruction types executed —
// the paper's headline metric.
func (c *CPU) Diversity() int {
	n := 0
	for op := sparc.Op(1); op < sparc.NumOps; op++ {
		if c.OpCounts[op] > 0 {
			n++
		}
	}
	return n
}

// UnitDiversity returns Dm: for each functional unit, the number of
// distinct instruction types that exercise it.
func (c *CPU) UnitDiversity() [sparc.NumUnits]int {
	var d [sparc.NumUnits]int
	for op := sparc.Op(1); op < sparc.NumOps; op++ {
		if c.OpCounts[op] == 0 {
			continue
		}
		for _, u := range sparc.UnitsOf(op).Units() {
			d[u]++
		}
	}
	return d
}

// MemoryInstCount returns the number of executed load/store instructions.
func (c *CPU) MemoryInstCount() uint64 {
	var n uint64
	for op := sparc.Op(1); op < sparc.NumOps; op++ {
		if op.IsMemory() {
			n += c.OpCounts[op]
		}
	}
	return n
}

func (c *CPU) String() string {
	return fmt.Sprintf("cpu{pc=%08x npc=%08x cwp=%d icc=%04b icount=%d %v}",
		c.PC, c.NPC, c.PSR.CWP, c.PSR.ICC.Bits(), c.Icount, c.status)
}
