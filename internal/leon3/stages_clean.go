// Code generated by twingen from stages.go, execute.go, muldiv.go; DO NOT EDIT.

// This file is the leon3 pipeline's clean twin: what cycleProbed runs,
// with every net read raw. The kernel runs it on cycles with nothing armed
// (rtl.Kernel.Twin). Edit the sources and run go generate ./internal/leon3.

package leon3

import (
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// cycleClean is cycleProbed with raw reads.
func (c *Core) cycleClean() {
	c.writebackCombClean()
	c.decodeCombClean()
	c.memoryCombClean()
	c.executeCombClean()
	c.regaccessCombClean()
	c.fetchCombClean()
	c.stallCombClean()
}

// u32Clean is u32 with raw reads.
func u32Clean(s *rtl.Signal) uint32 { return uint32(s.Raw()) }

// writebackCombClean is writebackComb with raw reads.
func (c *Core) writebackCombClean() {
	if c.wb.wbEn.RawBool() {
		if idx := c.wb.wbIdx.Raw() % physRegCnt; idx != 0 {
			c.rf.Write(int(idx), c.wb.wbVal.Raw())
		}
	}
	if c.wb.wb2En.RawBool() {
		if idx := c.wb.wb2Idx.Raw() % physRegCnt; idx != 0 {
			c.rf.Write(int(idx), c.wb.wb2Val.Raw())
		}
	}
	// The index/value ports are only latched behind their enables, so a
	// read-witness on the XC registers observes true consumption: a
	// bubble's (or non-writeback instruction's) stale port values never
	// reach the register file.
	valid := c.xc.valid.RawBool()
	wbEn := valid && c.xc.wbEn.RawBool()
	c.wb.wbEn.SetNextBool(wbEn)
	if wbEn {
		c.wb.wbIdx.SetNext(c.xc.wbIdx.Raw())
		c.wb.wbVal.SetNext(c.xc.wbVal.Raw())
	}
	wb2En := valid && c.xc.wb2En.RawBool()
	c.wb.wb2En.SetNextBool(wb2En)
	if wb2En {
		c.wb.wb2Idx.SetNext(c.xc.wb2Idx.Raw())
		c.wb.wb2Val.SetNext(c.xc.wb2Val.Raw())
	}
}

// decodeCombClean is decodeComb with raw reads.
func (c *Core) decodeCombClean() {
	// A fetch bubble decodes nothing: only the valid bit propagates. The
	// RA operand registers keep their stale contents, which regaccessComb
	// never reads for an invalid slot.
	if !c.de.valid.RawBool() {
		c.ra.valid.SetNext(0)
		return
	}
	word := u32Clean(c.de.inst)
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
	c.ra.pc.SetNext(c.de.pc.Raw())
	c.ra.op.SetNext(c.wDeOp.Raw())
	c.ra.rd.SetNext(c.wDeRd.Raw())
	c.ra.rs1.SetNext(c.wDeRs1.Raw())
	c.ra.rs2.SetNext(c.wDeRs2.Raw())
	c.ra.imm.SetNext(c.wDeImm.Raw())
	c.ra.simm.SetNext(c.wDeSimm.Raw())
	c.ra.disp.SetNext(c.wDeDisp.Raw())
	c.ra.annul.SetNext(c.wDeAnnul.Raw())
	c.ra.cond.SetNext(c.wDeCond.Raw())
	c.ra.raw.SetNext(uint64(word))
}

// memoryCombClean is memoryComb with raw reads.
func (c *Core) memoryCombClean() {
	c.wDcStall.SetBool(false)

	bubble := func() {
		c.xc.valid.SetNext(0)
		c.xc.wbEn.SetNext(0)
		c.xc.wb2En.SetNext(0)
	}
	if !c.me.valid.RawBool() {
		bubble()
		return
	}
	// pass advances ME -> XC. The writeback value ports (and the bypass
	// wires the younger stages snoop) are only touched behind their
	// enables, and the value closures defer the ME register reads until
	// an enable proves the value is consumed.
	pass := func(val, val2 func() uint64) {
		c.xc.valid.SetNext(1)
		wbEn := c.me.wbEn.RawBool()
		c.xc.wbEn.SetNextBool(wbEn)
		if wbEn {
			c.xc.wbIdx.SetNext(c.me.wbIdx.Raw())
			c.xc.wbVal.SetNext(val())
		}
		wb2En := c.me.wb2En.RawBool()
		c.xc.wb2En.SetNextBool(wb2En)
		if wb2En {
			c.xc.wb2Idx.SetNext(c.me.wb2Idx.Raw())
			c.xc.wb2Val.SetNext(val2())
		}
	}
	meResult := func() uint64 {
		v := c.me.result.Raw()
		c.wMeWbVal.Set(v)
		return v
	}
	meWb2 := func() uint64 {
		v := c.me.wb2Val.Raw()
		c.wMeWb2Val.Set(v)
		return v
	}
	if !c.me.isMem.RawBool() {
		pass(meResult, meWb2)
		return
	}

	addr := u32Clean(c.me.addr)
	c.dc.idx.Set(uint64(addr >> 4 & (dcSets - 1)))
	c.dc.tag.Set(uint64(addr >> 10))
	idx := int(c.dc.idx.Raw())
	entry := c.dc.tags.ReadRaw(idx)
	hit := entry>>22&1 == 1 && entry&0x3fffff == c.dc.tag.Raw()
	c.dc.hit.SetBool(hit)

	load := c.me.load.RawBool()
	needLine := load && !hit
	switch cnt := c.dc.counter.Raw(); {
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
		c.dc.tags.Write(idx, 1<<22|c.dc.tag.Raw())
		c.dc.counter.SetNext(0)
		hit = true
		c.dc.hit.SetBool(true)
	}

	seq := c.K.Now()
	off := int(addr >> 2 & (lineWords - 1))
	word := uint32(c.dc.data.ReadRaw(idx*lineWords + off))
	size := uint32(c.me.size.Raw())

	var loaded uint64
	if load {
		switch size {
		case 1:
			sh := 24 - 8*(addr&3)
			b := word >> sh & 0xff
			if c.me.signed.RawBool() {
				b = uint32(int32(int8(b)))
			}
			loaded = uint64(b)
		case 2:
			sh := 16 - 8*(addr&2)
			h := word >> sh & 0xffff
			if c.me.signed.RawBool() {
				h = uint32(int32(int16(h)))
			}
			loaded = uint64(h)
		default:
			loaded = uint64(word)
		}
	}
	var loaded2 uint64
	if load && c.me.dbl.RawBool() {
		loaded2 = c.dc.data.ReadRaw(idx*lineWords + (off | 1))
	}

	// Stores are write-through with no-allocate; on a hit the cached word
	// is updated in place.
	updateLine := func(a uint32, sz uint32, v uint32) {
		if !hit {
			return
		}
		o := int(a >> 2 & (lineWords - 1))
		w := uint32(c.dc.data.ReadRaw(idx*lineWords + o))
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
	case c.me.stub.RawBool(): // LDSTUB: read byte, write 0xff
		c.Bus.Write(addr, 1, 0xff, seq)
		updateLine(addr, 1, 0xff)
	case c.me.swap.RawBool(): // SWAP: read word, write rd
		v := u32Clean(c.me.wdata)
		c.Bus.Write(addr, 4, v, seq)
		updateLine(addr, 4, v)
	case c.me.store.RawBool():
		v := u32Clean(c.me.wdata)
		c.Bus.Write(addr, uint8(size&7), v, seq)
		updateLine(addr, size, v)
		if c.me.dbl.RawBool() {
			v2 := u32Clean(c.me.wdata2)
			c.Bus.Write(addr+4, 4, v2, seq)
			updateLine(addr+4, 4, v2)
		}
	}

	if load {
		c.wMeWbVal.Set(loaded)
		if c.me.dbl.RawBool() {
			c.wMeWb2Val.Set(loaded2)
		}
		pass(func() uint64 { return loaded }, func() uint64 { return loaded2 })
		return
	}
	pass(meResult, meWb2)
}

// regaccessCombClean is regaccessComb with raw reads.
func (c *Core) regaccessCombClean() {
	// A bubble touches no operand state: it neither reads the register
	// file nor latches the EX operand registers.
	if !c.ra.valid.RawBool() {
		c.ex.valid.SetNext(0)
		c.wLoadUse.SetBool(false)
		return
	}
	w := c.wNextCWP.Raw()
	read := func(r uint64) uint64 {
		idx := physReg(w, r&31)
		if idx == 0 {
			return 0
		}
		// Youngest producer first, and nothing behind the one that supplies
		// the value is sampled: a bypassed register-file word, like an older
		// stage's ports, is not consumed (see the operand comment below).
		if c.wExWbEn.RawBool() && c.wExWbIdx.Raw() == idx {
			return c.wExResult.Raw()
		}
		if c.me.valid.RawBool() {
			if c.me.wb2En.RawBool() && c.me.wb2Idx.Raw() == idx {
				return c.wMeWb2Val.Raw()
			}
			if c.me.wbEn.RawBool() && c.me.wbIdx.Raw() == idx {
				return c.wMeWbVal.Raw()
			}
		}
		if c.xc.valid.RawBool() {
			if c.xc.wb2En.RawBool() && c.xc.wb2Idx.Raw() == idx {
				return c.xc.wb2Val.Raw()
			}
			if c.xc.wbEn.RawBool() && c.xc.wbIdx.Raw() == idx {
				return c.xc.wbVal.Raw()
			}
		}
		return c.rf.ReadRaw(int(idx % physRegCnt))
	}

	rs1 := c.ra.rs1.Raw()
	rs2 := c.ra.rs2.Raw()
	rd := c.ra.rd.Raw()
	op := sparc.Op(c.ra.op.Raw())
	useRs2 := !c.ra.imm.RawBool()

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
		c.ex.a.SetNext(c.wRaOp1.Raw())
	}
	if needA || op == sparc.OpSETHI {
		op2 := uint64(0)
		if useRs2 {
			op2 = read(rs2)
		} else {
			op2 = c.ra.simm.Raw()
		}
		c.wRaOp2.Set(op2)
		c.ex.b.SetNext(c.wRaOp2.Raw())
	}
	if op.IsStore() {
		c.wRaSd.Set(read(rd))
		c.ex.sd.SetNext(c.wRaSd.Raw())
	}
	if op.IsBicc() || op == sparc.OpCALL {
		c.ex.disp.SetNext(c.ra.disp.Raw())
	}
	if op.IsBicc() || op.IsTicc() {
		c.ex.cond.SetNext(c.ra.cond.Raw())
	}
	if op.IsBicc() {
		c.ex.annul.SetNext(c.ra.annul.Raw())
	}

	c.ex.valid.SetNext(1)
	c.ex.pc.SetNext(c.ra.pc.Raw())
	c.ex.op.SetNext(c.ra.op.Raw())
	c.ex.rd.SetNext(rd)
	c.ex.rs1.SetNext(rs1)

	// Load-use hazard: the instruction in EX is a load whose destination
	// feeds one of our sources; its data only exists at ME next cycle.
	lu := false
	if c.ex.valid.RawBool() && c.wMatch.RawBool() {
		exOp := sparc.Op(c.ex.op.Raw())
		if exOp.IsLoad() {
			dst := physReg(c.wNextCWP.Raw(), c.ex.rd.Raw()&31)
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

// fetchCombClean is fetchComb with raw reads.
func (c *Core) fetchCombClean() {
	bubble := func() {
		c.de.valid.SetNext(0)
	}
	if c.wRedir.RawBool() {
		// Abandon the current fetch (and any miss in progress).
		c.fe.pc.SetNext(c.wRedirPC.Raw())
		c.ic.counter.SetNext(0)
		c.wIcStall.SetBool(false)
		bubble()
		return
	}
	pc := u32Clean(c.fe.pc) &^ 3
	c.ic.idx.Set(uint64(pc >> 4 & (icSets - 1)))
	c.ic.tag.Set(uint64(pc >> 10))
	idx := int(c.ic.idx.Raw())
	entry := c.ic.tags.ReadRaw(idx)
	hit := entry>>22&1 == 1 && entry&0x3fffff == c.ic.tag.Raw()
	c.ic.hit.SetBool(hit)

	switch cnt := c.ic.counter.Raw(); {
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
		c.ic.tags.Write(idx, 1<<22|c.ic.tag.Raw())
		c.ic.counter.SetNext(0)
	default:
		c.wIcStall.SetBool(false)
	}

	off := int(pc >> 2 & (lineWords - 1))
	inst := c.ic.data.ReadRaw(idx*lineWords + off)
	c.de.valid.SetNext(1)
	c.de.pc.SetNext(uint64(pc))
	c.de.inst.SetNext(inst)
	c.fe.pc.SetNext(uint64(pc + 4))
}

// stallCombClean is stallComb with raw reads.
func (c *Core) stallCombClean() {
	dc := c.wDcStall.RawBool()
	md := c.wMdBusy.RawBool()
	lu := c.wLoadUse.RawBool()
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

// executeCombClean is executeComb with raw reads.
func (c *Core) executeCombClean() {
	// Default wire values and register pass-through.
	c.wRedir.SetBool(false)
	c.wRedirPC.Set(c.arch.expPC.Raw())
	c.wExWbEn.SetBool(false)
	c.wExWbIdx.Set(0)
	c.wExResult.Set(0)
	c.wMdBusy.SetBool(false)
	c.wExTrap.SetBool(false)
	c.wExTT.Set(0)
	c.wMatch.SetBool(false)
	c.wBrTaken.SetBool(false)
	c.wAluOut.Set(0)
	c.wShOut.Set(0)
	c.wMemAddr.Set(0)
	c.wNextCWP.Set(c.arch.cwp.Raw())

	c.gArch.Hold()

	meBubble := func() {
		c.me.valid.SetNext(0)
		c.me.isMem.SetNext(0)
		c.me.wbEn.SetNext(0)
		c.me.wb2En.SetNext(0)
	}
	meBubble()

	// A data-cache stall freezes EX entirely (stallComb holds the input
	// registers; nothing may commit twice).
	if c.wDcStall.RawBool() {
		c.StallDCache++
		return
	}
	if c.arch.errm.RawBool() || c.arch.halt.RawBool() {
		return
	}
	if !c.ex.valid.RawBool() {
		c.StallEmpty++
		return
	}

	expPC := u32Clean(c.arch.expPC)
	pc := u32Clean(c.ex.pc)
	if pc != expPC {
		// Stale sequential prefetch: bubble it. Redirect fetch unless the
		// expected instruction is already in flight (short forward
		// branches land inside the sequential prefetch window) or a
		// redirect for this expectation was already issued.
		c.StallMismatch++
		inFlight := (c.ra.valid.RawBool() && u32Clean(c.ra.pc) == expPC) ||
			(c.de.valid.RawBool() && u32Clean(c.de.pc) == expPC) ||
			u32Clean(c.fe.pc) == expPC
		if !inFlight && !c.arch.redirT.RawBool() {
			c.wRedir.SetBool(true)
			c.wRedirPC.Set(uint64(expPC))
			c.arch.redirT.SetNext(1)
		}
		return
	}
	c.wMatch.SetBool(true)
	c.arch.redirT.SetNext(0)

	expNPC := u32Clean(c.arch.expNPC)
	advance := func() {
		c.arch.expPC.SetNext(uint64(expNPC))
		c.arch.expNPC.SetNext(uint64(expNPC + 4))
	}
	jumpTo := func(t uint32) {
		c.arch.expPC.SetNext(uint64(expNPC))
		c.arch.expNPC.SetNext(uint64(t))
	}

	if c.arch.annul.RawBool() {
		// Annulled delay slot: consumes a pipeline slot, no effects.
		c.StallAnnul++
		c.arch.annul.SetNext(0)
		advance()
		return
	}

	// Operand reads happen inside the cases that consume them (and the
	// case-specific helpers below), never eagerly: a read-witness on the
	// EX operand registers or the condition codes must see only true
	// consumption. cwp is genuinely consumed every cycle (the wNextCWP
	// default above already reads it).
	op := sparc.Op(c.ex.op.Raw())
	cwp := c.arch.cwp.Raw()
	opA := func() uint32 { return u32Clean(c.ex.a) }
	opB := func() uint32 { return u32Clean(c.ex.b) }
	archICC := func() sparc.CC { return sparc.CCFromBits(uint32(c.arch.icc.Raw())) }

	trap := func(tt uint8) {
		c.wExTrap.SetBool(true)
		c.wExTT.Set(uint64(tt))
		c.arch.tt.SetNext(uint64(tt))
		if !c.arch.sET.RawBool() {
			c.arch.errm.SetNext(1)
			return
		}
		newCWP := (cwp + NWindows - 1) % NWindows
		c.arch.sET.SetNext(0)
		c.arch.sPS.SetNext(c.arch.sS.Raw())
		c.arch.sS.SetNext(1)
		c.arch.cwp.SetNext(newCWP)
		c.wNextCWP.Set(newCWP)
		tbr := u32Clean(c.arch.tbr)&0xfffff000 | uint32(tt)<<4
		c.arch.tbr.SetNext(uint64(tbr))
		c.arch.expPC.SetNext(uint64(tbr))
		c.arch.expNPC.SetNext(uint64(tbr + 4))
		c.arch.annul.SetNext(0)
		// l1/l2 of the new window receive PC/nPC via the WB ports.
		c.me.valid.SetNext(1)
		c.me.isMem.SetNext(0)
		c.me.wbEn.SetNext(1)
		c.me.wbIdx.SetNext(physReg(newCWP, sparc.RegL1))
		c.me.result.SetNext(uint64(pc))
		c.me.wb2En.SetNext(1)
		c.me.wb2Idx.SetNext(physReg(newCWP, sparc.RegL2))
		c.me.wb2Val.SetNext(uint64(expNPC))
	}

	// commit pushes a non-memory result toward writeback.
	commit := func(wbEn bool, rd uint64, val uint32) {
		c.me.valid.SetNext(1)
		c.me.isMem.SetNext(0)
		if wbEn {
			idx := physReg(c.wNextCWP.Raw(), rd&31)
			if idx != 0 {
				c.me.wbEn.SetNext(1)
				c.me.wbIdx.SetNext(idx)
				c.me.result.SetNext(uint64(val))
				c.wExWbEn.SetBool(true)
				c.wExWbIdx.Set(idx)
				c.wExResult.Set(uint64(val))
			}
		}
	}

	retire := func() {
		c.Icount++
		c.OpCounts[op]++
	}

	switch {
	case op == sparc.OpUnknown:
		trap(iss.TrapIllegalInst)
		return

	case op == sparc.OpSETHI:
		b := opB()
		c.wAluOut.Set(uint64(b))
		commit(true, c.ex.rd.Raw(), b)
		advance()
		retire()
		return

	case op.IsBicc():
		taken := sparc.EvalCond(uint32(c.ex.cond.Raw()), archICC())
		c.wBrTaken.SetBool(taken)
		if taken {
			t := pc + u32Clean(c.ex.disp)<<2
			jumpTo(t)
			if c.ex.annul.RawBool() && op == sparc.OpBA {
				c.arch.annul.SetNext(1)
			}
		} else {
			if c.ex.annul.RawBool() {
				c.arch.annul.SetNext(1)
			}
			advance()
		}
		commit(false, 0, 0)
		retire()
		return

	case op == sparc.OpCALL:
		t := pc + u32Clean(c.ex.disp)<<2
		jumpTo(t)
		commit(true, 15, pc)
		retire()
		return

	case op.IsTicc():
		if sparc.EvalCond(uint32(c.ex.cond.Raw()), archICC()) {
			trap(uint8(iss.TrapInstBase + (opA()+opB())&0x7f))
			return
		}
		advance()
		commit(false, 0, 0)
		retire()
		return

	case op == sparc.OpJMPL:
		t := opA() + opB()
		c.wMemAddr.Set(uint64(t))
		if t&3 != 0 {
			trap(iss.TrapMemNotAligned)
			return
		}
		jumpTo(t)
		commit(true, c.ex.rd.Raw(), pc)
		retire()
		return

	case op == sparc.OpRETT:
		if c.arch.sET.RawBool() {
			trap(iss.TrapIllegalInst)
			return
		}
		if !c.arch.sS.RawBool() {
			trap(iss.TrapPrivilegedInst)
			return
		}
		t := opA() + opB()
		if t&3 != 0 {
			trap(iss.TrapMemNotAligned)
			return
		}
		newCWP := (cwp + 1) % NWindows
		if c.arch.wim.Raw()&(1<<newCWP) != 0 {
			trap(iss.TrapWindowUnderflow)
			return
		}
		c.arch.cwp.SetNext(newCWP)
		c.wNextCWP.Set(newCWP)
		c.arch.sS.SetNext(c.arch.sPS.Raw())
		c.arch.sET.SetNext(1)
		jumpTo(t)
		commit(false, 0, 0)
		retire()
		return

	case op == sparc.OpSAVE || op == sparc.OpRESTORE:
		var newCWP uint64
		var tt uint8
		if op == sparc.OpSAVE {
			newCWP = (cwp + NWindows - 1) % NWindows
			tt = iss.TrapWindowOverflow
		} else {
			newCWP = (cwp + 1) % NWindows
			tt = iss.TrapWindowUnderflow
		}
		if c.arch.wim.Raw()&(1<<newCWP) != 0 {
			trap(tt)
			return
		}
		sum := opA() + opB()
		c.wAluOut.Set(uint64(sum))
		c.arch.cwp.SetNext(newCWP)
		c.wNextCWP.Set(newCWP)
		commit(true, c.ex.rd.Raw(), sum)
		advance()
		retire()
		return

	case op.IsMemory():
		c.executeMemOpClean(op, opA(), opB(), trap, advance, retire)
		return

	case op >= sparc.OpUMUL && op <= sparc.OpSDIVCC:
		c.executeMulDivClean(op, opA(), opB(), trap, advance, retire, commit)
		return
	}

	// Single-cycle ALU and state-register operations (all consume both
	// operands).
	a, b := opA(), opB()
	res, cc, ok := c.aluOpClean(op, a, b, archICC())
	if !ok {
		trap(c.aluTrapTypeClean(op))
		return
	}
	c.wAluOut.Set(uint64(res))
	c.wAluCC.Set(uint64(cc.Bits()))
	if op.SetsCC() {
		c.arch.icc.SetNext(c.wAluCC.Raw())
	}
	advance()
	retire()

	switch op {
	case sparc.OpWRY:
		c.arch.y.SetNext(uint64(a ^ b))
		commit(false, 0, 0)
	case sparc.OpWRPSR:
		v := a ^ b
		psr := iss.PSRFromBits(v)
		c.arch.icc.SetNext(uint64(psr.ICC.Bits()))
		c.arch.sS.SetNextBool(psr.S)
		c.arch.sPS.SetNextBool(psr.PS)
		c.arch.sET.SetNextBool(psr.ET)
		c.arch.cwp.SetNext(uint64(psr.CWP))
		c.wNextCWP.Set(uint64(psr.CWP))
		commit(false, 0, 0)
	case sparc.OpWRWIM:
		c.arch.wim.SetNext(uint64((a ^ b) & (1<<NWindows - 1)))
		commit(false, 0, 0)
	case sparc.OpWRTBR:
		c.arch.tbr.SetNext(uint64((a ^ b) & 0xfffff000))
		commit(false, 0, 0)
	default:
		commit(true, c.ex.rd.Raw(), res)
	}
}

// aluTrapTypeClean is aluTrapType with raw reads.
func (c *Core) aluTrapTypeClean(op sparc.Op) uint8 {
	switch op {
	case sparc.OpRDPSR, sparc.OpRDWIM, sparc.OpRDTBR, sparc.OpWRPSR, sparc.OpWRWIM, sparc.OpWRTBR:
		if !c.arch.sS.RawBool() {
			return iss.TrapPrivilegedInst
		}
	}
	return iss.TrapIllegalInst
}

// aluOpClean is aluOp with raw reads.
func (c *Core) aluOpClean(op sparc.Op, a, b uint32, icc sparc.CC) (res uint32, cc sparc.CC, ok bool) {
	cc = icc
	ok = true
	switch op {
	case sparc.OpADD, sparc.OpADDCC:
		res, cc = sparc.AddCC(a, b, false)
	case sparc.OpADDX, sparc.OpADDXCC:
		res, cc = sparc.AddCC(a, b, icc.C)
	case sparc.OpSUB, sparc.OpSUBCC:
		res, cc = sparc.SubCC(a, b, false)
	case sparc.OpSUBX, sparc.OpSUBXCC:
		res, cc = sparc.SubCC(a, b, icc.C)
	case sparc.OpTADDCC:
		res, cc = sparc.AddCC(a, b, false)
		if (a|b)&3 != 0 {
			cc.V = true
		}
	case sparc.OpTSUBCC:
		res, cc = sparc.SubCC(a, b, false)
		if (a|b)&3 != 0 {
			cc.V = true
		}
	case sparc.OpAND, sparc.OpANDCC:
		res = a & b
		cc = sparc.LogicCC(res)
	case sparc.OpANDN, sparc.OpANDNCC:
		res = a &^ b
		cc = sparc.LogicCC(res)
	case sparc.OpOR, sparc.OpORCC:
		res = a | b
		cc = sparc.LogicCC(res)
	case sparc.OpORN, sparc.OpORNCC:
		res = a | ^b
		cc = sparc.LogicCC(res)
	case sparc.OpXOR, sparc.OpXORCC:
		res = a ^ b
		cc = sparc.LogicCC(res)
	case sparc.OpXNOR, sparc.OpXNORCC:
		res = ^(a ^ b)
		cc = sparc.LogicCC(res)
	case sparc.OpSLL:
		res = a << (b & 31)
		c.wShOut.Set(uint64(res))
	case sparc.OpSRL:
		res = a >> (b & 31)
		c.wShOut.Set(uint64(res))
	case sparc.OpSRA:
		res = uint32(int32(a) >> (b & 31))
		c.wShOut.Set(uint64(res))
	case sparc.OpMULSCC:
		op1 := a>>1 | bit(icc.N != icc.V)<<31
		op2 := uint32(0)
		y := u32Clean(c.arch.y)
		if y&1 != 0 {
			op2 = b
		}
		res, cc = sparc.AddCC(op1, op2, false)
		c.arch.y.SetNext(uint64(y>>1 | (a&1)<<31))
	case sparc.OpRDY:
		res = u32Clean(c.arch.y)
	case sparc.OpRDPSR:
		if !c.arch.sS.RawBool() {
			return 0, cc, false
		}
		res = c.psrBitsClean()
	case sparc.OpRDWIM:
		if !c.arch.sS.RawBool() {
			return 0, cc, false
		}
		res = u32Clean(c.arch.wim)
	case sparc.OpRDTBR:
		if !c.arch.sS.RawBool() {
			return 0, cc, false
		}
		res = u32Clean(c.arch.tbr)
	case sparc.OpWRY:
		res = 0
	case sparc.OpWRPSR, sparc.OpWRWIM, sparc.OpWRTBR:
		if !c.arch.sS.RawBool() {
			return 0, cc, false
		}
		if op == sparc.OpWRPSR && (a^b)&0x1f >= NWindows {
			return 0, cc, false
		}
		res = 0
	default:
		return 0, cc, false
	}
	return res, cc, true
}

// psrBitsClean is psrBits with raw reads.
func (c *Core) psrBitsClean() uint32 {
	p := iss.PSR{
		ICC: sparc.CCFromBits(uint32(c.arch.icc.Raw())),
		S:   c.arch.sS.RawBool(),
		PS:  c.arch.sPS.RawBool(),
		ET:  c.arch.sET.RawBool(),
		CWP: uint8(c.arch.cwp.Raw()),
	}
	return p.Bits()
}

// executeMemOpClean is executeMemOp with raw reads.
func (c *Core) executeMemOpClean(op sparc.Op, a, b uint32, trap func(uint8), advance, retire func()) {
	addr := a + b
	c.wMemAddr.Set(uint64(addr))
	var align uint32
	size := uint64(4)
	switch op {
	case sparc.OpLD, sparc.OpST, sparc.OpSWAP:
		align = 3
	case sparc.OpLDUH, sparc.OpLDSH, sparc.OpSTH:
		align, size = 1, 2
	case sparc.OpLDD, sparc.OpSTD:
		align = 7
	case sparc.OpLDUB, sparc.OpLDSB, sparc.OpSTB, sparc.OpLDSTUB:
		size = 1
	}
	if addr&align != 0 {
		trap(iss.TrapMemNotAligned)
		return
	}
	rd := c.ex.rd.Raw()
	dbl := op == sparc.OpLDD || op == sparc.OpSTD
	if dbl && rd&1 != 0 {
		trap(iss.TrapIllegalInst)
		return
	}

	if op.IsStore() && addr == mem.ExitAddr {
		// The exit device terminates the program once this store drains.
		c.arch.halt.SetNext(1)
	}

	c.me.valid.SetNext(1)
	c.me.isMem.SetNext(1)
	c.me.load.SetNextBool(op.IsLoad())
	c.me.store.SetNextBool(op.IsStore() && op != sparc.OpSWAP && op != sparc.OpLDSTUB)
	c.me.dbl.SetNextBool(dbl)
	c.me.size.SetNext(size)
	c.me.signed.SetNextBool(op == sparc.OpLDSB || op == sparc.OpLDSH)
	c.me.addr.SetNext(uint64(addr))
	if op.IsStore() {
		// Loads never consume the write-data port; reading sd for them
		// would make every load an observer of the store-data path.
		c.me.wdata.SetNext(c.ex.sd.Raw())
	}
	c.me.swap.SetNextBool(op == sparc.OpSWAP)
	c.me.stub.SetNextBool(op == sparc.OpLDSTUB)

	if op.IsLoad() {
		idx := physReg(c.wNextCWP.Raw(), rd&31)
		if idx != 0 {
			c.me.wbEn.SetNext(1)
			c.me.wbIdx.SetNext(idx)
		}
		if op == sparc.OpLDD {
			c.me.wb2En.SetNext(1)
			c.me.wb2Idx.SetNext(physReg(c.wNextCWP.Raw(), (rd|1)&31))
		}
	}
	if op == sparc.OpSTD {
		// The second word travels via the sd path read at RA? STD needs
		// rd|1 as well: it was read as part of the bypass network below.
		c.me.wdata2.SetNext(uint64(c.stdSecondWordClean()))
	}
	advance()
	retire()
}

// stdSecondWordClean is stdSecondWord with raw reads.
func (c *Core) stdSecondWordClean() uint32 {
	idx := physReg(c.wNextCWP.Raw(), (c.ex.rd.Raw()|1)&31)
	if idx == 0 {
		return 0
	}
	v := c.rf.ReadRaw(int(idx % physRegCnt))
	if c.xc.valid.RawBool() {
		if c.xc.wbEn.RawBool() && c.xc.wbIdx.Raw() == idx {
			v = c.xc.wbVal.Raw()
		}
		if c.xc.wb2En.RawBool() && c.xc.wb2Idx.Raw() == idx {
			v = c.xc.wb2Val.Raw()
		}
	}
	if c.me.valid.RawBool() { // ME is younger than XC: it wins
		if c.me.wbEn.RawBool() && c.me.wbIdx.Raw() == idx {
			v = c.wMeWbVal.Raw()
		}
		if c.me.wb2En.RawBool() && c.me.wb2Idx.Raw() == idx {
			v = c.wMeWb2Val.Raw()
		}
	}
	return uint32(v)
}

// executeMulDivClean is executeMulDiv with raw reads.
func (c *Core) executeMulDivClean(op sparc.Op, a, b uint32,
	trap func(uint8), advance, retire func(), commit func(bool, uint64, uint32)) {

	isDiv := op == sparc.OpUDIV || op == sparc.OpUDIVCC || op == sparc.OpSDIV || op == sparc.OpSDIVCC
	signedOp := op == sparc.OpSDIV || op == sparc.OpSDIVCC || op == sparc.OpSMUL || op == sparc.OpSMULCC

	// Operand magnitudes and result sign (recomputed each cycle from the
	// held EX operand registers; only partial state lives in md.*).
	ma, mb := uint64(a), uint64(b)
	neg := false
	if signedOp {
		if int32(a) < 0 {
			ma = uint64(uint32(-int32(a)))
			neg = !neg
		}
		if int32(b) < 0 {
			mb = uint64(uint32(-int32(b)))
			neg = !neg
		}
	}

	switch cnt := c.md.count.Raw(); {
	case cnt == 0: // issue cycle
		if isDiv {
			if b == 0 {
				trap(iss.TrapDivByZero)
				return
			}
			dividend := c.arch.y.Raw()<<32 | uint64(a)
			if signedOp {
				neg = false
				if int64(dividend) < 0 {
					dividend = uint64(-int64(dividend))
					neg = !neg
				}
				if int32(b) < 0 {
					neg = !neg
				}
			} else {
				neg = false
			}
			divisor := mb
			if !signedOp {
				divisor = uint64(b)
			}
			c.md.acc.SetNext(dividend)
			c.md.quot.SetNext(0)
			c.md.neg.SetNextBool(neg)
			c.md.ovf.SetNextBool(dividend>>32 >= divisor)
			c.md.count.SetNext(33) // 32 bit-steps + finalize
		} else {
			c.md.acc.SetNext(0)
			c.md.neg.SetNextBool(neg)
			c.md.ovf.SetNext(0)
			c.md.count.SetNext(mulCycles) // 4 byte-steps + finalize
		}
		c.wMdBusy.SetBool(true)
		c.StallMulDiv++
		return

	case cnt > 1: // iteration
		if isDiv {
			if !c.md.ovf.RawBool() {
				divisor := mb
				if !signedOp {
					divisor = uint64(b)
				}
				i := cnt - 2 // bit index 31..0
				acc := c.md.acc.Raw()
				rem := acc >> 32
				low := acc & 0xffffffff
				rem = rem<<1 | (low>>i)&1
				q := c.md.quot.Raw()
				if rem >= divisor {
					rem -= divisor
					q |= 1 << i
				}
				c.md.acc.SetNext(rem<<32 | low)
				c.md.quot.SetNext(q)
			}
		} else {
			j := mulCycles - cnt // byte index 0..3
			part := (ma * (mb >> (8 * j) & 0xff)) << (8 * j)
			c.md.acc.SetNext(c.md.acc.Raw() + part)
		}
		c.md.count.SetNext(cnt - 1)
		c.wMdBusy.SetBool(true)
		c.StallMulDiv++
		return
	}

	// cnt == 1: finalize and retire.
	c.md.count.SetNext(0)
	var res uint32
	var cc sparc.CC
	if isDiv {
		q := c.md.quot.Raw()
		v := false
		if signedOp {
			limit := uint64(0x7fffffff)
			if c.md.neg.RawBool() {
				limit = 0x80000000
			}
			if c.md.ovf.RawBool() || q > limit {
				v = true
				q = limit
			}
			if c.md.neg.RawBool() {
				q = uint64(uint32(-int32(uint32(q))))
			}
		} else if c.md.ovf.RawBool() {
			v = true
			q = 0xffffffff
		}
		res = uint32(q)
		cc = sparc.LogicCC(res)
		cc.V = v
	} else {
		prod := c.md.acc.Raw()
		if c.md.neg.RawBool() {
			prod = -prod
		}
		res = uint32(prod)
		c.arch.y.SetNext(prod >> 32)
		cc = sparc.LogicCC(res)
	}
	if op.SetsCC() {
		c.arch.icc.SetNext(uint64(cc.Bits()))
	}
	c.wAluOut.Set(uint64(res))
	commit(true, c.ex.rd.Raw(), res)
	advance()
	retire()
}
