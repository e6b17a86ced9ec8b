// Package leon3 is a structural RTL model of a LEON3-like 32-bit SPARC V8
// microcontroller: a 7-stage integer unit (FE DE RA EX ME XC WB) with a
// windowed register file, forwarding network, iterative multiply/divide
// unit and trap machinery, plus a cache memory subsystem (CMEM) with
// direct-mapped write-through instruction and data caches.
//
// The model is built on the internal/rtl kernel: every pipeline register,
// control wire and memory array is a named RTL node, so the fault injector
// can force stuck-at and open-line faults on "all available points" of the
// IU and CMEM hierarchies, exactly as the reproduced paper does on the
// VHDL description.
//
// Microarchitectural notes (documented deviations from the Gaisler RTL,
// see DESIGN.md): control transfers resolve in EX against an expected-PC
// chain with a self-correcting fetch (mispredicted sequential fetches turn
// into bubbles), rather than LEON3's RA-stage branch address mux; loads
// and stores perform both words of LDD/STD in a single ME pass. Both
// simplifications change only cycle counts, never architectural results.
package leon3

//go:generate go run gen.go

import (
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// NWindows matches the ISS configuration.
const NWindows = iss.NWindows

// Cache geometry and timing.
const (
	icSets     = 64 // direct-mapped, 4-word lines
	dcSets     = 64
	lineWords  = 4
	icMissPen  = 3 // cycles
	dcMissPen  = 4
	mulCycles  = 5  // init + 4 byte-steps, finalize on the last
	divCycles  = 34 // init + 32 bit-steps + finalize
	physRegCnt = 8 + NWindows*16
)

// Status mirrors the ISS run status for lockstep comparison.
type Status = iss.Status

// stageRegs groups the pipeline registers at one stage boundary.
type fetchRegs struct {
	pc *rtl.Signal // fetch program counter
}

type deRegs struct {
	valid *rtl.Signal
	pc    *rtl.Signal
	inst  *rtl.Signal
}

type raRegs struct {
	valid *rtl.Signal
	pc    *rtl.Signal
	op    *rtl.Signal // sparc.Op, 7 bits
	rd    *rtl.Signal
	rs1   *rtl.Signal
	rs2   *rtl.Signal
	imm   *rtl.Signal // immediate flag
	simm  *rtl.Signal // sign-extended simm13 (32 bits)
	disp  *rtl.Signal // branch/call displacement (32 bits, words)
	annul *rtl.Signal // Bicc annul bit
	cond  *rtl.Signal // Bicc/Ticc condition
	raw   *rtl.Signal // raw word (for unknown-op traps)
}

type exRegs struct {
	valid *rtl.Signal
	pc    *rtl.Signal
	op    *rtl.Signal
	rd    *rtl.Signal
	a     *rtl.Signal // operand 1
	b     *rtl.Signal // operand 2 (register or immediate)
	sd    *rtl.Signal // store data / wr source
	disp  *rtl.Signal
	annul *rtl.Signal
	cond  *rtl.Signal
	rs1   *rtl.Signal // kept for rett/jmpl addressing and diagnostics
}

type meRegs struct {
	valid  *rtl.Signal
	isMem  *rtl.Signal // performs a data-cache access
	load   *rtl.Signal
	store  *rtl.Signal
	dbl    *rtl.Signal // LDD/STD second word
	size   *rtl.Signal // 1, 2, 4 bytes (3 bits)
	signed *rtl.Signal // sign-extend loaded value
	addr   *rtl.Signal
	wdata  *rtl.Signal // store data word 0
	wdata2 *rtl.Signal // store data word 1 (STD)
	swap   *rtl.Signal // SWAP/LDSTUB read-modify-write
	stub   *rtl.Signal // LDSTUB (write 0xff)
	result *rtl.Signal // ALU result for non-loads
	wbEn   *rtl.Signal
	wbIdx  *rtl.Signal // physical register index (8 bits)
	wb2En  *rtl.Signal // second write port (LDD, trap l1/l2)
	wb2Idx *rtl.Signal
	wb2Val *rtl.Signal
}

type xcRegs struct {
	valid  *rtl.Signal
	wbEn   *rtl.Signal
	wbIdx  *rtl.Signal
	wbVal  *rtl.Signal
	wb2En  *rtl.Signal
	wb2Idx *rtl.Signal
	wb2Val *rtl.Signal
}

type wbRegs struct {
	wbEn   *rtl.Signal
	wbIdx  *rtl.Signal
	wbVal  *rtl.Signal
	wb2En  *rtl.Signal
	wb2Idx *rtl.Signal
	wb2Val *rtl.Signal
}

// archRegs is the EX-owned architectural control state.
type archRegs struct {
	expPC  *rtl.Signal // architectural PC of the next instruction to execute
	expNPC *rtl.Signal
	icc    *rtl.Signal // 4 bits NZVC
	cwp    *rtl.Signal
	sS     *rtl.Signal // supervisor
	sPS    *rtl.Signal
	sET    *rtl.Signal
	wim    *rtl.Signal
	tbr    *rtl.Signal
	y      *rtl.Signal
	annul  *rtl.Signal // next executed instruction is annulled
	redirT *rtl.Signal // a fetch redirect for the current expPC was issued
	errm   *rtl.Signal // error mode (trap while ET=0)
	halt   *rtl.Signal // exit-device store retired; stop executing
	tt     *rtl.Signal // last trap type
}

// mdRegs is the iterative multiply/divide unit state.
type mdRegs struct {
	count *rtl.Signal // remaining cycles (6 bits)
	acc   *rtl.Signal // partial product / remainder (64 bits)
	quot  *rtl.Signal // partial quotient (32 bits)
	neg   *rtl.Signal // result sign (signed ops)
	ovf   *rtl.Signal // overflow detected
}

// cacheRegs is one direct-mapped cache (tags+data arrays plus controller
// state).
type cacheRegs struct {
	tags    *rtl.MemArray // valid(1) | tag(22) per set
	data    *rtl.MemArray // lineWords words per set
	counter *rtl.Signal   // miss stall counter
	// controller wires
	idx, tag, hit *rtl.Signal
}

// Core is the RTL microcontroller.
type Core struct {
	K   *rtl.Kernel
	Bus *mem.Bus

	fe   fetchRegs
	de   deRegs
	ra   raRegs
	ex   exRegs
	me   meRegs
	xc   xcRegs
	wb   wbRegs
	arch archRegs
	md   mdRegs

	rf *rtl.MemArray // physical register file

	ic, dc cacheRegs

	// inter-stage wires
	wRedir    *rtl.Signal // fetch redirect request
	wRedirPC  *rtl.Signal
	wExResult *rtl.Signal // EX bypass value
	wExWbEn   *rtl.Signal
	wExWbIdx  *rtl.Signal
	wMeWbVal  *rtl.Signal // ME bypass value (load data or carried result)
	wMeWb2Val *rtl.Signal
	wNextCWP  *rtl.Signal // CWP after the instruction in EX
	wLoadUse  *rtl.Signal
	wMdBusy   *rtl.Signal
	wDcStall  *rtl.Signal
	wIcStall  *rtl.Signal
	wAluOut   *rtl.Signal // ALU datapath wires
	wAluCC    *rtl.Signal
	wShOut    *rtl.Signal
	wBrTaken  *rtl.Signal
	wExTrap   *rtl.Signal
	wExTT     *rtl.Signal
	wMemAddr  *rtl.Signal
	wMatch    *rtl.Signal // EX instruction matches expected PC
	wDeOp     *rtl.Signal // decode output wires
	wDeRd     *rtl.Signal
	wDeRs1    *rtl.Signal
	wDeRs2    *rtl.Signal
	wDeImm    *rtl.Signal
	wDeSimm   *rtl.Signal
	wDeDisp   *rtl.Signal
	wDeAnnul  *rtl.Signal
	wDeCond   *rtl.Signal
	wRaOp1    *rtl.Signal // register-access output wires
	wRaOp2    *rtl.Signal
	wRaSd     *rtl.Signal

	// Precomputed stall groups (see rtl.Group): the architectural state
	// held by executeComb every cycle, and the per-stage register sets
	// frozen by stallComb.
	gArch, gFE, gRA, gEX, gME rtl.Group

	// Icount counts architecturally executed (non-annulled) instructions.
	Icount uint64
	// OpCounts mirrors the ISS histogram for cross-checks.
	OpCounts [sparc.NumOps]uint64

	// Pipeline diagnostics (cycles lost per cause).
	StallMismatch uint64 // EX saw a stale prefetched instruction
	StallEmpty    uint64 // EX had no instruction (fetch bubbles)
	StallDCache   uint64 // data-cache miss freeze
	StallMulDiv   uint64 // multiply/divide iteration
	StallLoadUse  uint64 // load-use interlock
	StallAnnul    uint64 // annulled delay slots

	status   Status
	trapType uint8
	entry    uint32
}

// New builds the RTL core over the given bus, ready to execute from entry.
func New(bus *mem.Bus, entry uint32) *Core {
	k := rtl.NewKernel()
	c := &Core{K: k, Bus: bus, entry: entry, status: iss.StatusRunning}

	uF := rtl.Unit(sparc.UnitFetch)
	uD := rtl.Unit(sparc.UnitDecode)
	uR := rtl.Unit(sparc.UnitRegfile)
	uA := rtl.Unit(sparc.UnitALU)
	uS := rtl.Unit(sparc.UnitShifter)
	uM := rtl.Unit(sparc.UnitMulDiv)
	uB := rtl.Unit(sparc.UnitBranch)
	uL := rtl.Unit(sparc.UnitLSU)
	uP := rtl.Unit(sparc.UnitPSR)
	uCC := rtl.Unit(sparc.UnitCCtrl)
	uCT := rtl.Unit(sparc.UnitCTag)
	uCD := rtl.Unit(sparc.UnitCData)

	// Fetch.
	c.fe.pc = k.Reg("iu.fe.pc", 32, uF)
	c.de.valid = k.Reg("iu.de.valid", 1, uF)
	c.de.pc = k.Reg("iu.de.pc", 32, uF)
	c.de.inst = k.Reg("iu.de.inst", 32, uF)

	// Decode wires.
	c.wDeOp = k.Wire("iu.de.op", 7, uD)
	c.wDeRd = k.Wire("iu.de.rd", 5, uD)
	c.wDeRs1 = k.Wire("iu.de.rs1", 5, uD)
	c.wDeRs2 = k.Wire("iu.de.rs2", 5, uD)
	c.wDeImm = k.Wire("iu.de.immf", 1, uD)
	c.wDeSimm = k.Wire("iu.de.simm", 32, uD)
	c.wDeDisp = k.Wire("iu.de.disp", 32, uD)
	c.wDeAnnul = k.Wire("iu.de.annul", 1, uD)
	c.wDeCond = k.Wire("iu.de.cond", 4, uD)

	// RA stage registers.
	c.ra.valid = k.Reg("iu.ra.valid", 1, uD)
	c.ra.pc = k.Reg("iu.ra.pc", 32, uD)
	c.ra.op = k.Reg("iu.ra.op", 7, uD)
	c.ra.rd = k.Reg("iu.ra.rd", 5, uD)
	c.ra.rs1 = k.Reg("iu.ra.rs1", 5, uD)
	c.ra.rs2 = k.Reg("iu.ra.rs2", 5, uD)
	c.ra.imm = k.Reg("iu.ra.immf", 1, uD)
	c.ra.simm = k.Reg("iu.ra.simm", 32, uD)
	c.ra.disp = k.Reg("iu.ra.disp", 32, uD)
	c.ra.annul = k.Reg("iu.ra.annul", 1, uD)
	c.ra.cond = k.Reg("iu.ra.cond", 4, uD)
	c.ra.raw = k.Reg("iu.ra.raw", 32, uD)

	// Register file and read wires.
	c.rf = k.Array("iu.rf.regs", 32, physRegCnt, uR)
	c.wRaOp1 = k.Wire("iu.ra.op1", 32, uR)
	c.wRaOp2 = k.Wire("iu.ra.op2", 32, uR)
	c.wRaSd = k.Wire("iu.ra.sd", 32, uR)

	// EX stage registers.
	c.ex.valid = k.Reg("iu.ex.valid", 1, uR)
	c.ex.pc = k.Reg("iu.ex.pc", 32, uR)
	c.ex.op = k.Reg("iu.ex.op", 7, uR)
	c.ex.rd = k.Reg("iu.ex.rd", 5, uR)
	c.ex.a = k.Reg("iu.ex.a", 32, uR)
	c.ex.b = k.Reg("iu.ex.b", 32, uR)
	c.ex.sd = k.Reg("iu.ex.sd", 32, uR)
	c.ex.disp = k.Reg("iu.ex.disp", 32, uR)
	c.ex.annul = k.Reg("iu.ex.annulf", 1, uR)
	c.ex.cond = k.Reg("iu.ex.cond", 4, uR)
	c.ex.rs1 = k.Reg("iu.ex.rs1", 5, uR)

	// EX datapath wires.
	c.wAluOut = k.Wire("iu.ex.aluout", 32, uA)
	c.wAluCC = k.Wire("iu.ex.alucc", 4, uA)
	c.wShOut = k.Wire("iu.ex.shout", 32, uS)
	c.wBrTaken = k.Wire("iu.ex.brtaken", 1, uB)
	c.wExTrap = k.Wire("iu.ex.trap", 1, uP)
	c.wExTT = k.Wire("iu.ex.tt", 8, uP)
	c.wMemAddr = k.Wire("iu.ex.memaddr", 32, uL)
	c.wMatch = k.Wire("iu.ex.match", 1, uB)
	c.wExResult = k.Wire("iu.ex.result", 32, uA)
	c.wExWbEn = k.Wire("iu.ex.wben", 1, uR)
	c.wExWbIdx = k.Wire("iu.ex.wbidx", 8, uR)
	c.wNextCWP = k.Wire("iu.ex.nextcwp", 3, uP)
	c.wRedir = k.Wire("iu.fe.redir", 1, uB)
	c.wRedirPC = k.Wire("iu.fe.redirpc", 32, uB)

	// Multiply/divide unit.
	c.md.count = k.Reg("iu.md.count", 6, uM)
	c.md.acc = k.Reg("iu.md.acc", 64, uM)
	c.md.quot = k.Reg("iu.md.quot", 32, uM)
	c.md.neg = k.Reg("iu.md.neg", 1, uM)
	c.md.ovf = k.Reg("iu.md.ovf", 1, uM)
	c.wMdBusy = k.Wire("iu.md.busy", 1, uM)

	// Architectural control state.
	c.arch.expPC = k.Reg("iu.ctl.exppc", 32, uB)
	c.arch.expNPC = k.Reg("iu.ctl.expnpc", 32, uB)
	c.arch.icc = k.Reg("iu.psr.icc", 4, uP)
	c.arch.cwp = k.Reg("iu.psr.cwp", 3, uP)
	c.arch.sS = k.Reg("iu.psr.s", 1, uP)
	c.arch.sPS = k.Reg("iu.psr.ps", 1, uP)
	c.arch.sET = k.Reg("iu.psr.et", 1, uP)
	c.arch.wim = k.Reg("iu.psr.wim", 8, uP)
	c.arch.tbr = k.Reg("iu.psr.tbr", 32, uP)
	c.arch.y = k.Reg("iu.psr.y", 32, uP)
	c.arch.annul = k.Reg("iu.ctl.annul", 1, uB)
	c.arch.redirT = k.Reg("iu.ctl.redirt", 1, uB)
	c.arch.errm = k.Reg("iu.ctl.errm", 1, uP)
	c.arch.halt = k.Reg("iu.ctl.halt", 1, uP)
	c.arch.tt = k.Reg("iu.psr.tt", 8, uP)

	// ME stage registers.
	c.me.valid = k.Reg("iu.me.valid", 1, uL)
	c.me.isMem = k.Reg("iu.me.ismem", 1, uL)
	c.me.load = k.Reg("iu.me.load", 1, uL)
	c.me.store = k.Reg("iu.me.store", 1, uL)
	c.me.dbl = k.Reg("iu.me.dbl", 1, uL)
	c.me.size = k.Reg("iu.me.size", 3, uL)
	c.me.signed = k.Reg("iu.me.signed", 1, uL)
	c.me.addr = k.Reg("iu.me.addr", 32, uL)
	c.me.wdata = k.Reg("iu.me.wdata", 32, uL)
	c.me.wdata2 = k.Reg("iu.me.wdata2", 32, uL)
	c.me.swap = k.Reg("iu.me.swapf", 1, uL)
	c.me.stub = k.Reg("iu.me.stub", 1, uL)
	c.me.result = k.Reg("iu.me.result", 32, uL)
	c.me.wbEn = k.Reg("iu.me.wben", 1, uL)
	c.me.wbIdx = k.Reg("iu.me.wbidx", 8, uL)
	c.me.wb2En = k.Reg("iu.me.wb2en", 1, uL)
	c.me.wb2Idx = k.Reg("iu.me.wb2idx", 8, uL)
	c.me.wb2Val = k.Reg("iu.me.wb2val", 32, uL)
	c.wMeWbVal = k.Wire("iu.me.wbval", 32, uL)
	c.wMeWb2Val = k.Wire("iu.me.wb2valw", 32, uL)
	c.wLoadUse = k.Wire("iu.ra.loaduse", 1, uR)

	// XC stage registers.
	c.xc.valid = k.Reg("iu.xc.valid", 1, uP)
	c.xc.wbEn = k.Reg("iu.xc.wben", 1, uP)
	c.xc.wbIdx = k.Reg("iu.xc.wbidx", 8, uP)
	c.xc.wbVal = k.Reg("iu.xc.wbval", 32, uP)
	c.xc.wb2En = k.Reg("iu.xc.wb2en", 1, uP)
	c.xc.wb2Idx = k.Reg("iu.xc.wb2idx", 8, uP)
	c.xc.wb2Val = k.Reg("iu.xc.wb2val", 32, uP)

	// WB stage registers.
	c.wb.wbEn = k.Reg("iu.wb.wben", 1, uR)
	c.wb.wbIdx = k.Reg("iu.wb.wbidx", 8, uR)
	c.wb.wbVal = k.Reg("iu.wb.wbval", 32, uR)
	c.wb.wb2En = k.Reg("iu.wb.wb2en", 1, uR)
	c.wb.wb2Idx = k.Reg("iu.wb.wb2idx", 8, uR)
	c.wb.wb2Val = k.Reg("iu.wb.wb2val", 32, uR)

	// Cache memory (CMEM).
	c.ic.tags = k.Array("cmem.ic.tags", 23, icSets, uCT)
	c.ic.data = k.Array("cmem.ic.data", 32, icSets*lineWords, uCD)
	c.ic.counter = k.Reg("cmem.ic.count", 4, uCC)
	c.ic.idx = k.Wire("cmem.ic.idx", 6, uCC)
	c.ic.tag = k.Wire("cmem.ic.tag", 22, uCC)
	c.ic.hit = k.Wire("cmem.ic.hit", 1, uCC)
	c.wIcStall = k.Wire("cmem.ic.stall", 1, uCC)

	c.dc.tags = k.Array("cmem.dc.tags", 23, dcSets, uCT)
	c.dc.data = k.Array("cmem.dc.data", 32, dcSets*lineWords, uCD)
	c.dc.counter = k.Reg("cmem.dc.count", 4, uCC)
	c.dc.idx = k.Wire("cmem.dc.idx", 6, uCC)
	c.dc.tag = k.Wire("cmem.dc.tag", 22, uCC)
	c.dc.hit = k.Wire("cmem.dc.hit", 1, uCC)
	c.wDcStall = k.Wire("cmem.dc.stall", 1, uCC)

	// Stall groups: the architectural state executeComb holds by default
	// each cycle, and the per-stage register sets stallComb freezes.
	c.gArch = k.Group(
		c.arch.expPC, c.arch.expNPC, c.arch.icc, c.arch.cwp,
		c.arch.sS, c.arch.sPS, c.arch.sET, c.arch.wim, c.arch.tbr,
		c.arch.y, c.arch.annul, c.arch.redirT, c.arch.errm, c.arch.halt, c.arch.tt,
		c.md.count, c.md.acc, c.md.quot, c.md.neg, c.md.ovf)
	c.gFE = k.Group(c.fe.pc, c.de.valid, c.de.pc, c.de.inst, c.ic.counter)
	c.gRA = k.Group(c.ra.valid, c.ra.pc, c.ra.op, c.ra.rd, c.ra.rs1, c.ra.rs2,
		c.ra.imm, c.ra.simm, c.ra.disp, c.ra.annul, c.ra.cond, c.ra.raw)
	c.gEX = k.Group(c.ex.valid, c.ex.pc, c.ex.op, c.ex.rd, c.ex.a, c.ex.b,
		c.ex.sd, c.ex.disp, c.ex.annul, c.ex.cond, c.ex.rs1)
	c.gME = k.Group(c.me.valid, c.me.isMem, c.me.load, c.me.store, c.me.dbl,
		c.me.size, c.me.signed, c.me.addr, c.me.wdata, c.me.wdata2,
		c.me.swap, c.me.stub, c.me.result, c.me.wbEn, c.me.wbIdx,
		c.me.wb2En, c.me.wb2Idx, c.me.wb2Val)

	c.resetSignals()

	// One process, in two builds: the seven stages with probed reads, and
	// their generated clean twin, which the kernel runs while nothing is
	// armed.
	k.Twin(c.cycleClean, c.cycleProbed)
	return c
}

// resetSignals drives the power-on values onto the (all-zero) kernel
// state: entry PC into the fetch and expected-PC chain, top window,
// supervisor mode with traps enabled, and window 0 invalid.
func (c *Core) resetSignals() {
	entry := c.entry
	c.fe.pc.Set(uint64(entry))
	c.fe.pc.SetNext(uint64(entry))
	c.arch.expPC.Set(uint64(entry))
	c.arch.expPC.SetNext(uint64(entry))
	c.arch.expNPC.Set(uint64(entry + 4))
	c.arch.expNPC.SetNext(uint64(entry + 4))
	c.arch.cwp.Set(NWindows - 1)
	c.arch.cwp.SetNext(NWindows - 1)
	c.arch.sS.Set(1)
	c.arch.sS.SetNext(1)
	c.arch.sET.Set(1)
	c.arch.sET.SetNext(1)
	c.arch.wim.Set(1)
	c.arch.wim.SetNext(1)
}

// Reset returns the core to its power-on state in place — every RTL
// signal and array back to the reset values, counters and diagnostics
// zeroed, status running — so a pooled core can be reused across
// fault-injection experiments instead of being rebuilt. The bus is left
// untouched: callers install a fresh (or forked) memory image themselves
// by assigning Bus before resuming execution.
func (c *Core) Reset() {
	c.K.ResetState()
	c.resetSignals()
	c.Icount = 0
	c.OpCounts = [sparc.NumOps]uint64{}
	c.StallMismatch, c.StallEmpty, c.StallDCache = 0, 0, 0
	c.StallMulDiv, c.StallLoadUse, c.StallAnnul = 0, 0, 0
	c.status = iss.StatusRunning
	c.trapType = 0
}

// physReg maps architectural register r under window w to its physical
// index (globals first, then the windowed file; mirrors the ISS layout).
func physReg(w uint64, r uint64) uint64 {
	if r < 8 {
		return r
	}
	switch {
	case r < 16: // outs = ins of the window below
		return 8 + ((w+NWindows-1)%NWindows)*16 + (r - 8)
	case r < 24: // locals
		return 8 + w*16 + 8 + (r - 16)
	default: // ins
		return 8 + w*16 + (r - 24)
	}
}

// Status returns the core's terminal status.
func (c *Core) Status() Status { return c.status }

// TrapTaken returns the tt of the trap that caused error mode.
func (c *Core) TrapTaken() uint8 { return c.trapType }

// Cycles returns the elapsed clock cycles.
func (c *Core) Cycles() uint64 { return c.K.Now() }

// RegPhys reads a physical register (for lockstep checks).
func (c *Core) RegPhys(i int) uint32 { return uint32(c.rf.Read(i)) }

// Reg reads architectural register r in the current window.
func (c *Core) Reg(r int) uint32 {
	if r == 0 {
		return 0
	}
	return uint32(c.rf.Read(int(physReg(c.arch.cwp.Get(), uint64(r)))))
}

// PC returns the architectural PC (next instruction to execute).
func (c *Core) PC() uint32 { return u32(c.arch.expPC) }
