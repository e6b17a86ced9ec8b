package leon3

import (
	"repro/internal/iss"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// cycleProbed is one cycle of the pipeline: the stages in evaluation
// order, the write-first register file, then the older stages before the
// younger ones so that bypass wires are valid when the register-access
// stage samples them. Every net read in what it runs goes through the
// kernel's probes (Get, Read). Its clean twin, cycleClean
// (stages_clean.go), is generated from this file, execute.go and
// muldiv.go with every read raw; edit these and run go generate.
func (c *Core) cycleProbed() {
	c.writebackComb()
	c.decodeComb()
	c.memoryComb()
	c.executeComb()
	c.regaccessComb()
	c.fetchComb()
	c.stallComb()
}

// u32 truncates a signal value to 32 bits.
func u32(s *rtl.Signal) uint32 { return uint32(s.Get()) }

// writebackComb runs first each cycle: it retires the WB stage into the
// register file (write-before-read, like the LEON3 register file's
// half-cycle write) and advances XC -> WB.
func (c *Core) writebackComb() {
	if c.wb.wbEn.GetBool() {
		if idx := c.wb.wbIdx.Get() % physRegCnt; idx != 0 {
			c.rf.Write(int(idx), c.wb.wbVal.Get())
		}
	}
	if c.wb.wb2En.GetBool() {
		if idx := c.wb.wb2Idx.Get() % physRegCnt; idx != 0 {
			c.rf.Write(int(idx), c.wb.wb2Val.Get())
		}
	}
	// The index/value ports are only latched behind their enables, so a
	// read-witness on the XC registers observes true consumption: a
	// bubble's (or non-writeback instruction's) stale port values never
	// reach the register file.
	valid := c.xc.valid.GetBool()
	wbEn := valid && c.xc.wbEn.GetBool()
	c.wb.wbEn.SetNextBool(wbEn)
	if wbEn {
		c.wb.wbIdx.SetNext(c.xc.wbIdx.Get())
		c.wb.wbVal.SetNext(c.xc.wbVal.Get())
	}
	wb2En := valid && c.xc.wb2En.GetBool()
	c.wb.wb2En.SetNextBool(wb2En)
	if wb2En {
		c.wb.wb2Idx.SetNext(c.xc.wb2Idx.Get())
		c.wb.wb2Val.SetNext(c.xc.wb2Val.Get())
	}
}

// decodeComb decodes the instruction in DE into control wires and latches
// them into the RA stage registers.
func (c *Core) decodeComb() {
	// A fetch bubble decodes nothing: only the valid bit propagates. The
	// RA operand registers keep their stale contents, which regaccessComb
	// never reads for an invalid slot.
	if !c.de.valid.GetBool() {
		c.ra.valid.SetNext(0)
		return
	}
	word := u32(c.de.inst)
	in := sparc.Decode(word)
	c.wDeOp.Set(uint64(in.Op))
	c.wDeRd.Set(uint64(in.Rd))
	c.wDeRs1.Set(uint64(in.Rs1))
	c.wDeRs2.Set(uint64(in.Rs2))
	c.wDeImm.SetBool(in.Imm)
	simm := uint64(uint32(in.Simm13))
	if in.Op == sparc.OpSETHI {
		simm = uint64(uint32(in.Imm22) << 10)
		c.wDeImm.SetBool(true)
	}
	c.wDeSimm.Set(simm)
	disp := uint64(uint32(in.Imm22))
	if in.Op == sparc.OpCALL {
		disp = uint64(uint32(in.Disp30))
	}
	c.wDeDisp.Set(disp)
	c.wDeAnnul.SetBool(in.Annul)
	c.wDeCond.Set(uint64(in.Op.Cond()))

	c.ra.valid.SetNext(1)
	c.ra.pc.SetNext(c.de.pc.Get())
	c.ra.op.SetNext(c.wDeOp.Get())
	c.ra.rd.SetNext(c.wDeRd.Get())
	c.ra.rs1.SetNext(c.wDeRs1.Get())
	c.ra.rs2.SetNext(c.wDeRs2.Get())
	c.ra.imm.SetNext(c.wDeImm.Get())
	c.ra.simm.SetNext(c.wDeSimm.Get())
	c.ra.disp.SetNext(c.wDeDisp.Get())
	c.ra.annul.SetNext(c.wDeAnnul.Get())
	c.ra.cond.SetNext(c.wDeCond.Get())
	c.ra.raw.SetNext(uint64(word))
}

// memoryComb performs the data-cache access of the instruction in ME and
// advances ME -> XC. It runs before executeComb so that the stall wire and
// the load-data bypass are visible to the younger stages in the same
// cycle.
func (c *Core) memoryComb() {
	c.wDcStall.SetBool(false)

	bubble := func() {
		c.xc.valid.SetNext(0)
		c.xc.wbEn.SetNext(0)
		c.xc.wb2En.SetNext(0)
	}
	if !c.me.valid.GetBool() {
		bubble()
		return
	}
	// pass advances ME -> XC. The writeback value ports (and the bypass
	// wires the younger stages snoop) are only touched behind their
	// enables, and the value closures defer the ME register reads until
	// an enable proves the value is consumed.
	pass := func(val, val2 func() uint64) {
		c.xc.valid.SetNext(1)
		wbEn := c.me.wbEn.GetBool()
		c.xc.wbEn.SetNextBool(wbEn)
		if wbEn {
			c.xc.wbIdx.SetNext(c.me.wbIdx.Get())
			c.xc.wbVal.SetNext(val())
		}
		wb2En := c.me.wb2En.GetBool()
		c.xc.wb2En.SetNextBool(wb2En)
		if wb2En {
			c.xc.wb2Idx.SetNext(c.me.wb2Idx.Get())
			c.xc.wb2Val.SetNext(val2())
		}
	}
	meResult := func() uint64 {
		v := c.me.result.Get()
		c.wMeWbVal.Set(v)
		return v
	}
	meWb2 := func() uint64 {
		v := c.me.wb2Val.Get()
		c.wMeWb2Val.Set(v)
		return v
	}
	if !c.me.isMem.GetBool() {
		pass(meResult, meWb2)
		return
	}

	addr := u32(c.me.addr)
	c.dc.idx.Set(uint64(addr >> 4 & (dcSets - 1)))
	c.dc.tag.Set(uint64(addr >> 10))
	idx := int(c.dc.idx.Get())
	entry := c.dc.tags.Read(idx)
	hit := entry>>22&1 == 1 && entry&0x3fffff == c.dc.tag.Get()
	c.dc.hit.SetBool(hit)

	load := c.me.load.GetBool()
	needLine := load && !hit
	switch cnt := c.dc.counter.Get(); {
	case needLine && cnt == 0:
		c.dc.counter.SetNext(dcMissPen)
		c.wDcStall.SetBool(true)
		bubble()
		return
	case needLine && cnt > 1:
		c.dc.counter.SetNext(cnt - 1)
		c.wDcStall.SetBool(true)
		bubble()
		return
	case needLine && cnt == 1:
		// Line fill from the bus, then fall through and complete. The
		// line is now present: read-modify-write accesses (SWAP, LDSTUB)
		// must update it below.
		base := addr &^ (4*lineWords - 1)
		for w := 0; w < lineWords; w++ {
			c.dc.data.Write(idx*lineWords+w, uint64(c.Bus.Mem.Read32(base+uint32(4*w))))
		}
		c.dc.tags.Write(idx, 1<<22|c.dc.tag.Get())
		c.dc.counter.SetNext(0)
		hit = true
		c.dc.hit.SetBool(true)
	}

	seq := c.K.Now()
	off := int(addr >> 2 & (lineWords - 1))
	word := uint32(c.dc.data.Read(idx*lineWords + off))
	size := uint32(c.me.size.Get())

	var loaded uint64
	if load {
		switch size {
		case 1:
			sh := 24 - 8*(addr&3)
			b := word >> sh & 0xff
			if c.me.signed.GetBool() {
				b = uint32(int32(int8(b)))
			}
			loaded = uint64(b)
		case 2:
			sh := 16 - 8*(addr&2)
			h := word >> sh & 0xffff
			if c.me.signed.GetBool() {
				h = uint32(int32(int16(h)))
			}
			loaded = uint64(h)
		default:
			loaded = uint64(word)
		}
	}
	var loaded2 uint64
	if load && c.me.dbl.GetBool() {
		loaded2 = c.dc.data.Read(idx*lineWords + (off | 1))
	}

	// Stores are write-through with no-allocate; on a hit the cached word
	// is updated in place.
	updateLine := func(a uint32, sz uint32, v uint32) {
		if !hit {
			return
		}
		o := int(a >> 2 & (lineWords - 1))
		w := uint32(c.dc.data.Read(idx*lineWords + o))
		switch sz {
		case 1:
			sh := 24 - 8*(a&3)
			w = w&^(0xff<<sh) | (v&0xff)<<sh
		case 2:
			sh := 16 - 8*(a&2)
			w = w&^(0xffff<<sh) | (v&0xffff)<<sh
		default:
			w = v
		}
		c.dc.data.Write(idx*lineWords+o, uint64(w))
	}

	switch {
	case c.me.stub.GetBool(): // LDSTUB: read byte, write 0xff
		c.Bus.Write(addr, 1, 0xff, seq)
		updateLine(addr, 1, 0xff)
	case c.me.swap.GetBool(): // SWAP: read word, write rd
		v := u32(c.me.wdata)
		c.Bus.Write(addr, 4, v, seq)
		updateLine(addr, 4, v)
	case c.me.store.GetBool():
		v := u32(c.me.wdata)
		c.Bus.Write(addr, uint8(size&7), v, seq)
		updateLine(addr, size, v)
		if c.me.dbl.GetBool() {
			v2 := u32(c.me.wdata2)
			c.Bus.Write(addr+4, 4, v2, seq)
			updateLine(addr+4, 4, v2)
		}
	}

	if load {
		c.wMeWbVal.Set(loaded)
		if c.me.dbl.GetBool() {
			c.wMeWb2Val.Set(loaded2)
		}
		pass(func() uint64 { return loaded }, func() uint64 { return loaded2 })
		return
	}
	pass(meResult, meWb2)
}

// regaccessComb reads the register file with full bypassing from the
// EX/ME/XC stages, latches operands into EX and raises the load-use stall.
func (c *Core) regaccessComb() {
	// A bubble touches no operand state: it neither reads the register
	// file nor latches the EX operand registers.
	if !c.ra.valid.GetBool() {
		c.ex.valid.SetNext(0)
		c.wLoadUse.SetBool(false)
		return
	}
	w := c.wNextCWP.Get()
	read := func(r uint64) uint64 {
		idx := physReg(w, r&31)
		if idx == 0 {
			return 0
		}
		// Youngest producer first, and nothing behind the one that supplies
		// the value is sampled: a bypassed register-file word, like an older
		// stage's ports, is not consumed (see the operand comment below).
		if c.wExWbEn.GetBool() && c.wExWbIdx.Get() == idx {
			return c.wExResult.Get()
		}
		if c.me.valid.GetBool() {
			if c.me.wb2En.GetBool() && c.me.wb2Idx.Get() == idx {
				return c.wMeWb2Val.Get()
			}
			if c.me.wbEn.GetBool() && c.me.wbIdx.Get() == idx {
				return c.wMeWbVal.Get()
			}
		}
		if c.xc.valid.GetBool() {
			if c.xc.wb2En.GetBool() && c.xc.wb2Idx.Get() == idx {
				return c.xc.wb2Val.Get()
			}
			if c.xc.wbEn.GetBool() && c.xc.wbIdx.Get() == idx {
				return c.xc.wbVal.Get()
			}
		}
		return c.rf.Read(int(idx % physRegCnt))
	}

	rs1 := c.ra.rs1.Get()
	rs2 := c.ra.rs2.Get()
	rd := c.ra.rd.Get()
	op := sparc.Op(c.ra.op.Get())
	useRs2 := !c.ra.imm.GetBool()

	// Operand consumption by op class. Branch-steering ops (Bicc, CALL)
	// and undecodable words never touch the operand datapath, SETHI
	// consumes only its immediate, and only stores read rd as data. Reads
	// the EX stage will not consume are not performed at all, so a
	// read-witness on the register file or the RA operand registers
	// observes true consumption only (the batched campaign engine's
	// activation predicate depends on this; see rtl.StartWitness).
	needA := !(op == sparc.OpUnknown || op == sparc.OpSETHI || op.IsBicc() || op == sparc.OpCALL)
	if needA {
		c.wRaOp1.Set(read(rs1))
		c.ex.a.SetNext(c.wRaOp1.Get())
	}
	if needA || op == sparc.OpSETHI {
		op2 := uint64(0)
		if useRs2 {
			op2 = read(rs2)
		} else {
			op2 = c.ra.simm.Get()
		}
		c.wRaOp2.Set(op2)
		c.ex.b.SetNext(c.wRaOp2.Get())
	}
	if op.IsStore() {
		c.wRaSd.Set(read(rd))
		c.ex.sd.SetNext(c.wRaSd.Get())
	}
	if op.IsBicc() || op == sparc.OpCALL {
		c.ex.disp.SetNext(c.ra.disp.Get())
	}
	if op.IsBicc() || op.IsTicc() {
		c.ex.cond.SetNext(c.ra.cond.Get())
	}
	if op.IsBicc() {
		c.ex.annul.SetNext(c.ra.annul.Get())
	}

	c.ex.valid.SetNext(1)
	c.ex.pc.SetNext(c.ra.pc.Get())
	c.ex.op.SetNext(c.ra.op.Get())
	c.ex.rd.SetNext(rd)
	c.ex.rs1.SetNext(rs1)

	// Load-use hazard: the instruction in EX is a load whose destination
	// feeds one of our sources; its data only exists at ME next cycle.
	lu := false
	if c.ex.valid.GetBool() && c.wMatch.GetBool() {
		exOp := sparc.Op(c.ex.op.Get())
		if exOp.IsLoad() {
			dst := physReg(c.wNextCWP.Get(), c.ex.rd.Get()&31)
			dbl := exOp == sparc.OpLDD
			match := func(r uint64) bool {
				i := physReg(w, r&31)
				if i == 0 {
					return false
				}
				return i == dst || (dbl && i == (dst|1))
			}
			if match(rs1) || (useRs2 && match(rs2)) || (op.IsStore() && match(rd)) {
				lu = true
			}
		}
	}
	c.wLoadUse.SetBool(lu)
}

// fetchComb fetches through the instruction cache along the sequential
// prefetch path, honoring redirect requests from EX.
func (c *Core) fetchComb() {
	bubble := func() {
		c.de.valid.SetNext(0)
	}
	if c.wRedir.GetBool() {
		// Abandon the current fetch (and any miss in progress).
		c.fe.pc.SetNext(c.wRedirPC.Get())
		c.ic.counter.SetNext(0)
		c.wIcStall.SetBool(false)
		bubble()
		return
	}
	pc := u32(c.fe.pc) &^ 3
	c.ic.idx.Set(uint64(pc >> 4 & (icSets - 1)))
	c.ic.tag.Set(uint64(pc >> 10))
	idx := int(c.ic.idx.Get())
	entry := c.ic.tags.Read(idx)
	hit := entry>>22&1 == 1 && entry&0x3fffff == c.ic.tag.Get()
	c.ic.hit.SetBool(hit)

	switch cnt := c.ic.counter.Get(); {
	case !hit && cnt == 0:
		c.ic.counter.SetNext(icMissPen)
		c.wIcStall.SetBool(true)
		c.fe.pc.Hold()
		bubble()
		return
	case !hit && cnt > 1:
		c.ic.counter.SetNext(cnt - 1)
		c.wIcStall.SetBool(true)
		c.fe.pc.Hold()
		bubble()
		return
	case !hit && cnt == 1:
		base := pc &^ (4*lineWords - 1)
		for w := 0; w < lineWords; w++ {
			c.ic.data.Write(idx*lineWords+w, uint64(c.Bus.Fetch32(base+uint32(4*w))))
		}
		c.ic.tags.Write(idx, 1<<22|c.ic.tag.Get())
		c.ic.counter.SetNext(0)
	default:
		c.wIcStall.SetBool(false)
	}

	off := int(pc >> 2 & (lineWords - 1))
	inst := c.ic.data.Read(idx*lineWords + off)
	c.de.valid.SetNext(1)
	c.de.pc.SetNext(uint64(pc))
	c.de.inst.SetNext(inst)
	c.fe.pc.SetNext(uint64(pc + 4))
}

// stallComb runs last and applies the pipeline holds demanded by the
// stall wires, using the precomputed per-stage hold groups. Stall scopes
// (younger stages always freeze first):
//
//	load-use:  FE DE RA frozen, EX bubbled
//	muldiv:    FE DE RA EX frozen (ME was bubbled by EX)
//	dcache:    FE DE RA EX ME frozen (XC was bubbled by ME)
func (c *Core) stallComb() {
	dc := c.wDcStall.GetBool()
	md := c.wMdBusy.GetBool()
	lu := c.wLoadUse.GetBool()
	if !(dc || md || lu) {
		return
	}
	c.gFE.Hold()
	c.gRA.Hold()
	if lu && !dc && !md {
		c.StallLoadUse++
		c.ex.valid.SetNext(0)
		return
	}
	c.gEX.Hold()
	if dc {
		c.gME.Hold()
		// The architectural state scheduled by a skipped EX must also
		// freeze (executeComb held off all its commits already).
	}
}

// StepCycle advances the core by one clock cycle and updates its status.
func (c *Core) StepCycle() Status {
	if c.status != iss.StatusRunning {
		return c.status
	}
	c.K.Cycle()
	if c.Bus.Exited() {
		c.status = iss.StatusExited
	} else if c.arch.errm.GetBool() {
		c.status = iss.StatusErrorMode
		c.trapType = uint8(c.arch.tt.Get())
	}
	return c.status
}

// Run advances the core until exit, error mode or the cycle budget.
func (c *Core) Run(maxCycles uint64) Status {
	for c.status == iss.StatusRunning && c.K.Now() < maxCycles {
		c.StepCycle()
	}
	if c.status == iss.StatusRunning {
		c.status = iss.StatusBudget
	}
	return c.status
}
