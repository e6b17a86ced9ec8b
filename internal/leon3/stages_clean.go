// Code generated by twingen from stages.go, execute.go, muldiv.go and New's slab layout; DO NOT EDIT.

// This file is the leon3 pipeline's clean twin: what cycleProbed runs,
// compiled against the slab layout New declares, with no probe and no
// rtl.Signal handle. The kernel runs it on cycles with nothing armed
// (rtl.Kernel.Twin). Edit the sources and run go generate ./internal/leon3.

package leon3

import (
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/sparc"
)

// The slab layout: the lengths of the register and wire slabs, and each
// net's word in its slab, in the order New declares them.
const (
	nRegs  = 80
	nWires = 38

	regIuFePc       = 0  // iu.fe.pc, width 32
	regIuDeValid    = 1  // iu.de.valid, width 1
	regIuDePc       = 2  // iu.de.pc, width 32
	regIuDeInst     = 3  // iu.de.inst, width 32
	wireIuDeOp      = 0  // iu.de.op, width 7
	wireIuDeRd      = 1  // iu.de.rd, width 5
	wireIuDeRs1     = 2  // iu.de.rs1, width 5
	wireIuDeRs2     = 3  // iu.de.rs2, width 5
	wireIuDeImmf    = 4  // iu.de.immf, width 1
	wireIuDeSimm    = 5  // iu.de.simm, width 32
	wireIuDeDisp    = 6  // iu.de.disp, width 32
	wireIuDeAnnul   = 7  // iu.de.annul, width 1
	wireIuDeCond    = 8  // iu.de.cond, width 4
	regIuRaValid    = 4  // iu.ra.valid, width 1
	regIuRaPc       = 5  // iu.ra.pc, width 32
	regIuRaOp       = 6  // iu.ra.op, width 7
	regIuRaRd       = 7  // iu.ra.rd, width 5
	regIuRaRs1      = 8  // iu.ra.rs1, width 5
	regIuRaRs2      = 9  // iu.ra.rs2, width 5
	regIuRaImmf     = 10 // iu.ra.immf, width 1
	regIuRaSimm     = 11 // iu.ra.simm, width 32
	regIuRaDisp     = 12 // iu.ra.disp, width 32
	regIuRaAnnul    = 13 // iu.ra.annul, width 1
	regIuRaCond     = 14 // iu.ra.cond, width 4
	regIuRaRaw      = 15 // iu.ra.raw, width 32
	wireIuRaOp1     = 9  // iu.ra.op1, width 32
	wireIuRaOp2     = 10 // iu.ra.op2, width 32
	wireIuRaSd      = 11 // iu.ra.sd, width 32
	regIuExValid    = 16 // iu.ex.valid, width 1
	regIuExPc       = 17 // iu.ex.pc, width 32
	regIuExOp       = 18 // iu.ex.op, width 7
	regIuExRd       = 19 // iu.ex.rd, width 5
	regIuExA        = 20 // iu.ex.a, width 32
	regIuExB        = 21 // iu.ex.b, width 32
	regIuExSd       = 22 // iu.ex.sd, width 32
	regIuExDisp     = 23 // iu.ex.disp, width 32
	regIuExAnnulf   = 24 // iu.ex.annulf, width 1
	regIuExCond     = 25 // iu.ex.cond, width 4
	regIuExRs1      = 26 // iu.ex.rs1, width 5
	wireIuExAluout  = 12 // iu.ex.aluout, width 32
	wireIuExAlucc   = 13 // iu.ex.alucc, width 4
	wireIuExShout   = 14 // iu.ex.shout, width 32
	wireIuExBrtaken = 15 // iu.ex.brtaken, width 1
	wireIuExTrap    = 16 // iu.ex.trap, width 1
	wireIuExTt      = 17 // iu.ex.tt, width 8
	wireIuExMemaddr = 18 // iu.ex.memaddr, width 32
	wireIuExMatch   = 19 // iu.ex.match, width 1
	wireIuExResult  = 20 // iu.ex.result, width 32
	wireIuExWben    = 21 // iu.ex.wben, width 1
	wireIuExWbidx   = 22 // iu.ex.wbidx, width 8
	wireIuExNextcwp = 23 // iu.ex.nextcwp, width 3
	wireIuFeRedir   = 24 // iu.fe.redir, width 1
	wireIuFeRedirpc = 25 // iu.fe.redirpc, width 32
	regIuMdCount    = 27 // iu.md.count, width 6
	regIuMdAcc      = 28 // iu.md.acc, width 64
	regIuMdQuot     = 29 // iu.md.quot, width 32
	regIuMdNeg      = 30 // iu.md.neg, width 1
	regIuMdOvf      = 31 // iu.md.ovf, width 1
	wireIuMdBusy    = 26 // iu.md.busy, width 1
	regIuCtlExppc   = 32 // iu.ctl.exppc, width 32
	regIuCtlExpnpc  = 33 // iu.ctl.expnpc, width 32
	regIuPsrIcc     = 34 // iu.psr.icc, width 4
	regIuPsrCwp     = 35 // iu.psr.cwp, width 3
	regIuPsrS       = 36 // iu.psr.s, width 1
	regIuPsrPs      = 37 // iu.psr.ps, width 1
	regIuPsrEt      = 38 // iu.psr.et, width 1
	regIuPsrWim     = 39 // iu.psr.wim, width 8
	regIuPsrTbr     = 40 // iu.psr.tbr, width 32
	regIuPsrY       = 41 // iu.psr.y, width 32
	regIuCtlAnnul   = 42 // iu.ctl.annul, width 1
	regIuCtlRedirt  = 43 // iu.ctl.redirt, width 1
	regIuCtlErrm    = 44 // iu.ctl.errm, width 1
	regIuCtlHalt    = 45 // iu.ctl.halt, width 1
	regIuPsrTt      = 46 // iu.psr.tt, width 8
	regIuMeValid    = 47 // iu.me.valid, width 1
	regIuMeIsmem    = 48 // iu.me.ismem, width 1
	regIuMeLoad     = 49 // iu.me.load, width 1
	regIuMeStore    = 50 // iu.me.store, width 1
	regIuMeDbl      = 51 // iu.me.dbl, width 1
	regIuMeSize     = 52 // iu.me.size, width 3
	regIuMeSigned   = 53 // iu.me.signed, width 1
	regIuMeAddr     = 54 // iu.me.addr, width 32
	regIuMeWdata    = 55 // iu.me.wdata, width 32
	regIuMeWdata2   = 56 // iu.me.wdata2, width 32
	regIuMeSwapf    = 57 // iu.me.swapf, width 1
	regIuMeStub     = 58 // iu.me.stub, width 1
	regIuMeResult   = 59 // iu.me.result, width 32
	regIuMeWben     = 60 // iu.me.wben, width 1
	regIuMeWbidx    = 61 // iu.me.wbidx, width 8
	regIuMeWb2en    = 62 // iu.me.wb2en, width 1
	regIuMeWb2idx   = 63 // iu.me.wb2idx, width 8
	regIuMeWb2val   = 64 // iu.me.wb2val, width 32
	wireIuMeWbval   = 27 // iu.me.wbval, width 32
	wireIuMeWb2valw = 28 // iu.me.wb2valw, width 32
	wireIuRaLoaduse = 29 // iu.ra.loaduse, width 1
	regIuXcValid    = 65 // iu.xc.valid, width 1
	regIuXcWben     = 66 // iu.xc.wben, width 1
	regIuXcWbidx    = 67 // iu.xc.wbidx, width 8
	regIuXcWbval    = 68 // iu.xc.wbval, width 32
	regIuXcWb2en    = 69 // iu.xc.wb2en, width 1
	regIuXcWb2idx   = 70 // iu.xc.wb2idx, width 8
	regIuXcWb2val   = 71 // iu.xc.wb2val, width 32
	regIuWbWben     = 72 // iu.wb.wben, width 1
	regIuWbWbidx    = 73 // iu.wb.wbidx, width 8
	regIuWbWbval    = 74 // iu.wb.wbval, width 32
	regIuWbWb2en    = 75 // iu.wb.wb2en, width 1
	regIuWbWb2idx   = 76 // iu.wb.wb2idx, width 8
	regIuWbWb2val   = 77 // iu.wb.wb2val, width 32
	regCmemIcCount  = 78 // cmem.ic.count, width 4
	wireCmemIcIdx   = 30 // cmem.ic.idx, width 6
	wireCmemIcTag   = 31 // cmem.ic.tag, width 22
	wireCmemIcHit   = 32 // cmem.ic.hit, width 1
	wireCmemIcStall = 33 // cmem.ic.stall, width 1
	regCmemDcCount  = 79 // cmem.dc.count, width 4
	wireCmemDcIdx   = 34 // cmem.dc.idx, width 6
	wireCmemDcTag   = 35 // cmem.dc.tag, width 22
	wireCmemDcHit   = 36 // cmem.dc.hit, width 1
	wireCmemDcStall = 37 // cmem.dc.stall, width 1
)

// cycleClean is cycleProbed compiled against the slab layout.
func (c *Core) cycleClean() {
	c.writebackCombClean()
	c.decodeCombClean()
	c.memoryCombClean()
	c.executeCombClean()
	c.regaccessCombClean()
	c.fetchCombClean()
	c.stallCombClean()
}

// u32Clean is u32 compiled against the slab layout.
func u32Clean(s uint64) uint32 { return uint32(s) }

// writebackCombClean is writebackComb compiled against the slab layout.
func (c *Core) writebackCombClean() {
	rc, rn := c.rc, c.rn
	if rc[regIuWbWben] != 0 {
		if idx := rc[regIuWbWbidx] % physRegCnt; idx != 0 {
			c.rf.Write(int(idx), rc[regIuWbWbval])
		}
	}
	if rc[regIuWbWb2en] != 0 {
		if idx := rc[regIuWbWb2idx] % physRegCnt; idx != 0 {
			c.rf.Write(int(idx), rc[regIuWbWb2val])
		}
	}
	// The index/value ports are only latched behind their enables, so a
	// read-witness on the XC registers observes true consumption: a
	// bubble's (or non-writeback instruction's) stale port values never
	// reach the register file.
	valid := rc[regIuXcValid] != 0
	wbEn := valid && rc[regIuXcWben] != 0
	rn[regIuWbWben] = boolWord(wbEn)
	if wbEn {
		rn[regIuWbWbidx] = rc[regIuXcWbidx] & 0xff
		rn[regIuWbWbval] = rc[regIuXcWbval] & 0xffffffff
	}
	wb2En := valid && rc[regIuXcWb2en] != 0
	rn[regIuWbWb2en] = boolWord(wb2En)
	if wb2En {
		rn[regIuWbWb2idx] = rc[regIuXcWb2idx] & 0xff
		rn[regIuWbWb2val] = rc[regIuXcWb2val] & 0xffffffff
	}
}

// decodeCombClean is decodeComb compiled against the slab layout.
func (c *Core) decodeCombClean() {
	rc, rn, wc := c.rc, c.rn, c.wc
	// A fetch bubble decodes nothing: only the valid bit propagates. The
	// RA operand registers keep their stale contents, which regaccessComb
	// never reads for an invalid slot.
	if rc[regIuDeValid] == 0 {
		rn[regIuRaValid] = 0
		return
	}
	word := u32Clean(rc[regIuDeInst])
	in := sparc.Decode(word)
	wc[wireIuDeOp] = uint64(in.Op) & 0x7f
	wc[wireIuDeRd] = uint64(in.Rd) & 0x1f
	wc[wireIuDeRs1] = uint64(in.Rs1) & 0x1f
	wc[wireIuDeRs2] = uint64(in.Rs2) & 0x1f
	wc[wireIuDeImmf] = boolWord(in.Imm)
	simm := uint64(uint32(in.Simm13))
	if in.Op == sparc.OpSETHI {
		simm = uint64(uint32(in.Imm22) << 10)
		wc[wireIuDeImmf] = 1
	}
	wc[wireIuDeSimm] = simm & 0xffffffff
	disp := uint64(uint32(in.Imm22))
	if in.Op == sparc.OpCALL {
		disp = uint64(uint32(in.Disp30))
	}
	wc[wireIuDeDisp] = disp & 0xffffffff
	wc[wireIuDeAnnul] = boolWord(in.Annul)
	wc[wireIuDeCond] = uint64(in.Op.Cond()) & 0xf

	rn[regIuRaValid] = 1
	rn[regIuRaPc] = rc[regIuDePc] & 0xffffffff
	rn[regIuRaOp] = wc[wireIuDeOp] & 0x7f
	rn[regIuRaRd] = wc[wireIuDeRd] & 0x1f
	rn[regIuRaRs1] = wc[wireIuDeRs1] & 0x1f
	rn[regIuRaRs2] = wc[wireIuDeRs2] & 0x1f
	rn[regIuRaImmf] = wc[wireIuDeImmf] & 0x1
	rn[regIuRaSimm] = wc[wireIuDeSimm] & 0xffffffff
	rn[regIuRaDisp] = wc[wireIuDeDisp] & 0xffffffff
	rn[regIuRaAnnul] = wc[wireIuDeAnnul] & 0x1
	rn[regIuRaCond] = wc[wireIuDeCond] & 0xf
	rn[regIuRaRaw] = uint64(word)
}

// memoryCombClean is memoryComb compiled against the slab layout.
func (c *Core) memoryCombClean() {
	rc, rn, wc := c.rc, c.rn, c.wc
	wc[wireCmemDcStall] = 0

	bubble := func() {
		rn[regIuXcValid] = 0
		rn[regIuXcWben] = 0
		rn[regIuXcWb2en] = 0
	}
	if rc[regIuMeValid] == 0 {
		bubble()
		return
	}
	// pass advances ME -> XC. The writeback value ports (and the bypass
	// wires the younger stages snoop) are only touched behind their
	// enables, and the value closures defer the ME register reads until
	// an enable proves the value is consumed.
	pass := func(val, val2 func() uint64) {
		rn[regIuXcValid] = 1
		wbEn := rc[regIuMeWben] != 0
		rn[regIuXcWben] = boolWord(wbEn)
		if wbEn {
			rn[regIuXcWbidx] = rc[regIuMeWbidx] & 0xff
			rn[regIuXcWbval] = val() & 0xffffffff
		}
		wb2En := rc[regIuMeWb2en] != 0
		rn[regIuXcWb2en] = boolWord(wb2En)
		if wb2En {
			rn[regIuXcWb2idx] = rc[regIuMeWb2idx] & 0xff
			rn[regIuXcWb2val] = val2() & 0xffffffff
		}
	}
	meResult := func() uint64 {
		v := rc[regIuMeResult]
		wc[wireIuMeWbval] = v & 0xffffffff
		return v
	}
	meWb2 := func() uint64 {
		v := rc[regIuMeWb2val]
		wc[wireIuMeWb2valw] = v & 0xffffffff
		return v
	}
	if rc[regIuMeIsmem] == 0 {
		pass(meResult, meWb2)
		return
	}

	addr := u32Clean(rc[regIuMeAddr])
	wc[wireCmemDcIdx] = uint64(addr>>4&(dcSets-1)) & 0x3f
	wc[wireCmemDcTag] = uint64(addr>>10) & 0x3fffff
	idx := int(wc[wireCmemDcIdx])
	entry := c.dc.tags.ReadRaw(idx)
	hit := entry>>22&1 == 1 && entry&0x3fffff == wc[wireCmemDcTag]
	wc[wireCmemDcHit] = boolWord(hit)

	load := rc[regIuMeLoad] != 0
	needLine := load && !hit
	switch cnt := rc[regCmemDcCount]; {
	case needLine && cnt == 0:
		rn[regCmemDcCount] = dcMissPen
		wc[wireCmemDcStall] = 1
		bubble()
		return
	case needLine && cnt > 1:
		rn[regCmemDcCount] = (cnt - 1) & 0xf
		wc[wireCmemDcStall] = 1
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
		c.dc.tags.Write(idx, 1<<22|wc[wireCmemDcTag])
		rn[regCmemDcCount] = 0
		hit = true
		wc[wireCmemDcHit] = 1
	}

	seq := c.K.Now()
	off := int(addr >> 2 & (lineWords - 1))
	word := uint32(c.dc.data.ReadRaw(idx*lineWords + off))
	size := uint32(rc[regIuMeSize])

	var loaded uint64
	if load {
		switch size {
		case 1:
			sh := 24 - 8*(addr&3)
			b := word >> sh & 0xff
			if rc[regIuMeSigned] != 0 {
				b = uint32(int32(int8(b)))
			}
			loaded = uint64(b)
		case 2:
			sh := 16 - 8*(addr&2)
			h := word >> sh & 0xffff
			if rc[regIuMeSigned] != 0 {
				h = uint32(int32(int16(h)))
			}
			loaded = uint64(h)
		default:
			loaded = uint64(word)
		}
	}
	var loaded2 uint64
	if load && rc[regIuMeDbl] != 0 {
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
	case rc[regIuMeStub] != 0: // LDSTUB: read byte, write 0xff
		c.Bus.Write(addr, 1, 0xff, seq)
		updateLine(addr, 1, 0xff)
	case rc[regIuMeSwapf] != 0: // SWAP: read word, write rd
		v := u32Clean(rc[regIuMeWdata])
		c.Bus.Write(addr, 4, v, seq)
		updateLine(addr, 4, v)
	case rc[regIuMeStore] != 0:
		v := u32Clean(rc[regIuMeWdata])
		c.Bus.Write(addr, uint8(size&7), v, seq)
		updateLine(addr, size, v)
		if rc[regIuMeDbl] != 0 {
			v2 := u32Clean(rc[regIuMeWdata2])
			c.Bus.Write(addr+4, 4, v2, seq)
			updateLine(addr+4, 4, v2)
		}
	}

	if load {
		wc[wireIuMeWbval] = loaded & 0xffffffff
		if rc[regIuMeDbl] != 0 {
			wc[wireIuMeWb2valw] = loaded2 & 0xffffffff
		}
		pass(func() uint64 { return loaded }, func() uint64 { return loaded2 })
		return
	}
	pass(meResult, meWb2)
}

// regaccessCombClean is regaccessComb compiled against the slab layout.
func (c *Core) regaccessCombClean() {
	rc, rn, wc := c.rc, c.rn, c.wc
	// A bubble touches no operand state: it neither reads the register
	// file nor latches the EX operand registers.
	if rc[regIuRaValid] == 0 {
		rn[regIuExValid] = 0
		wc[wireIuRaLoaduse] = 0
		return
	}
	w := wc[wireIuExNextcwp]
	read := func(r uint64) uint64 {
		idx := physReg(w, r&31)
		if idx == 0 {
			return 0
		}
		// Youngest producer first, and nothing behind the one that supplies
		// the value is sampled: a bypassed register-file word, like an older
		// stage's ports, is not consumed (see the operand comment below).
		if wc[wireIuExWben] != 0 && wc[wireIuExWbidx] == idx {
			return wc[wireIuExResult]
		}
		if rc[regIuMeValid] != 0 {
			if rc[regIuMeWb2en] != 0 && rc[regIuMeWb2idx] == idx {
				return wc[wireIuMeWb2valw]
			}
			if rc[regIuMeWben] != 0 && rc[regIuMeWbidx] == idx {
				return wc[wireIuMeWbval]
			}
		}
		if rc[regIuXcValid] != 0 {
			if rc[regIuXcWb2en] != 0 && rc[regIuXcWb2idx] == idx {
				return rc[regIuXcWb2val]
			}
			if rc[regIuXcWben] != 0 && rc[regIuXcWbidx] == idx {
				return rc[regIuXcWbval]
			}
		}
		return c.rf.ReadRaw(int(idx % physRegCnt))
	}

	rs1 := rc[regIuRaRs1]
	rs2 := rc[regIuRaRs2]
	rd := rc[regIuRaRd]
	op := sparc.Op(rc[regIuRaOp])
	useRs2 := rc[regIuRaImmf] == 0

	// Operand consumption by op class. Branch-steering ops (Bicc, CALL)
	// and undecodable words never touch the operand datapath, SETHI
	// consumes only its immediate, and only stores read rd as data. Reads
	// the EX stage will not consume are not performed at all, so a
	// read-witness on the register file or the RA operand registers
	// observes true consumption only (the batched campaign engine's
	// activation predicate depends on this; see rtl.StartWitness).
	needA := !(op == sparc.OpUnknown || op == sparc.OpSETHI || op.IsBicc() || op == sparc.OpCALL)
	if needA {
		wc[wireIuRaOp1] = read(rs1) & 0xffffffff
		rn[regIuExA] = wc[wireIuRaOp1] & 0xffffffff
	}
	if needA || op == sparc.OpSETHI {
		op2 := uint64(0)
		if useRs2 {
			op2 = read(rs2)
		} else {
			op2 = rc[regIuRaSimm]
		}
		wc[wireIuRaOp2] = op2 & 0xffffffff
		rn[regIuExB] = wc[wireIuRaOp2] & 0xffffffff
	}
	if op.IsStore() {
		wc[wireIuRaSd] = read(rd) & 0xffffffff
		rn[regIuExSd] = wc[wireIuRaSd] & 0xffffffff
	}
	if op.IsBicc() || op == sparc.OpCALL {
		rn[regIuExDisp] = rc[regIuRaDisp] & 0xffffffff
	}
	if op.IsBicc() || op.IsTicc() {
		rn[regIuExCond] = rc[regIuRaCond] & 0xf
	}
	if op.IsBicc() {
		rn[regIuExAnnulf] = rc[regIuRaAnnul] & 0x1
	}

	rn[regIuExValid] = 1
	rn[regIuExPc] = rc[regIuRaPc] & 0xffffffff
	rn[regIuExOp] = rc[regIuRaOp] & 0x7f
	rn[regIuExRd] = rd & 0x1f
	rn[regIuExRs1] = rs1 & 0x1f

	// Load-use hazard: the instruction in EX is a load whose destination
	// feeds one of our sources; its data only exists at ME next cycle.
	lu := false
	if rc[regIuExValid] != 0 && wc[wireIuExMatch] != 0 {
		exOp := sparc.Op(rc[regIuExOp])
		if exOp.IsLoad() {
			dst := physReg(wc[wireIuExNextcwp], rc[regIuExRd]&31)
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
	wc[wireIuRaLoaduse] = boolWord(lu)
}

// fetchCombClean is fetchComb compiled against the slab layout.
func (c *Core) fetchCombClean() {
	rc, rn, wc := c.rc, c.rn, c.wc
	bubble := func() {
		rn[regIuDeValid] = 0
	}
	if wc[wireIuFeRedir] != 0 {
		// Abandon the current fetch (and any miss in progress).
		rn[regIuFePc] = wc[wireIuFeRedirpc] & 0xffffffff
		rn[regCmemIcCount] = 0
		wc[wireCmemIcStall] = 0
		bubble()
		return
	}
	pc := u32Clean(rc[regIuFePc]) &^ 3
	wc[wireCmemIcIdx] = uint64(pc>>4&(icSets-1)) & 0x3f
	wc[wireCmemIcTag] = uint64(pc>>10) & 0x3fffff
	idx := int(wc[wireCmemIcIdx])
	entry := c.ic.tags.ReadRaw(idx)
	hit := entry>>22&1 == 1 && entry&0x3fffff == wc[wireCmemIcTag]
	wc[wireCmemIcHit] = boolWord(hit)

	switch cnt := rc[regCmemIcCount]; {
	case !hit && cnt == 0:
		rn[regCmemIcCount] = icMissPen
		wc[wireCmemIcStall] = 1
		rn[regIuFePc] = rc[regIuFePc]
		bubble()
		return
	case !hit && cnt > 1:
		rn[regCmemIcCount] = (cnt - 1) & 0xf
		wc[wireCmemIcStall] = 1
		rn[regIuFePc] = rc[regIuFePc]
		bubble()
		return
	case !hit && cnt == 1:
		base := pc &^ (4*lineWords - 1)
		for w := 0; w < lineWords; w++ {
			c.ic.data.Write(idx*lineWords+w, uint64(c.Bus.Fetch32(base+uint32(4*w))))
		}
		c.ic.tags.Write(idx, 1<<22|wc[wireCmemIcTag])
		rn[regCmemIcCount] = 0
	default:
		wc[wireCmemIcStall] = 0
	}

	off := int(pc >> 2 & (lineWords - 1))
	inst := c.ic.data.ReadRaw(idx*lineWords + off)
	rn[regIuDeValid] = 1
	rn[regIuDePc] = uint64(pc)
	rn[regIuDeInst] = inst & 0xffffffff
	rn[regIuFePc] = uint64(pc + 4)
}

// stallCombClean is stallComb compiled against the slab layout.
func (c *Core) stallCombClean() {
	rc, rn, wc := c.rc, c.rn, c.wc
	dc := wc[wireCmemDcStall] != 0
	md := wc[wireIuMdBusy] != 0
	lu := wc[wireIuRaLoaduse] != 0
	if !(dc || md || lu) {
		return
	}
	rn[regIuFePc] = rc[regIuFePc]
	rn[regIuDeValid] = rc[regIuDeValid]
	rn[regIuDePc] = rc[regIuDePc]
	rn[regIuDeInst] = rc[regIuDeInst]
	rn[regCmemIcCount] = rc[regCmemIcCount]
	rn[regIuRaValid] = rc[regIuRaValid]
	rn[regIuRaPc] = rc[regIuRaPc]
	rn[regIuRaOp] = rc[regIuRaOp]
	rn[regIuRaRd] = rc[regIuRaRd]
	rn[regIuRaRs1] = rc[regIuRaRs1]
	rn[regIuRaRs2] = rc[regIuRaRs2]
	rn[regIuRaImmf] = rc[regIuRaImmf]
	rn[regIuRaSimm] = rc[regIuRaSimm]
	rn[regIuRaDisp] = rc[regIuRaDisp]
	rn[regIuRaAnnul] = rc[regIuRaAnnul]
	rn[regIuRaCond] = rc[regIuRaCond]
	rn[regIuRaRaw] = rc[regIuRaRaw]
	if lu && !dc && !md {
		c.StallLoadUse++
		rn[regIuExValid] = 0
		return
	}
	rn[regIuExValid] = rc[regIuExValid]
	rn[regIuExPc] = rc[regIuExPc]
	rn[regIuExOp] = rc[regIuExOp]
	rn[regIuExRd] = rc[regIuExRd]
	rn[regIuExA] = rc[regIuExA]
	rn[regIuExB] = rc[regIuExB]
	rn[regIuExSd] = rc[regIuExSd]
	rn[regIuExDisp] = rc[regIuExDisp]
	rn[regIuExAnnulf] = rc[regIuExAnnulf]
	rn[regIuExCond] = rc[regIuExCond]
	rn[regIuExRs1] = rc[regIuExRs1]
	if dc {
		rn[regIuMeValid] = rc[regIuMeValid]
		rn[regIuMeIsmem] = rc[regIuMeIsmem]
		rn[regIuMeLoad] = rc[regIuMeLoad]
		rn[regIuMeStore] = rc[regIuMeStore]
		rn[regIuMeDbl] = rc[regIuMeDbl]
		rn[regIuMeSize] = rc[regIuMeSize]
		rn[regIuMeSigned] = rc[regIuMeSigned]
		rn[regIuMeAddr] = rc[regIuMeAddr]
		rn[regIuMeWdata] = rc[regIuMeWdata]
		rn[regIuMeWdata2] = rc[regIuMeWdata2]
		rn[regIuMeSwapf] = rc[regIuMeSwapf]
		rn[regIuMeStub] = rc[regIuMeStub]
		rn[regIuMeResult] = rc[regIuMeResult]
		rn[regIuMeWben] = rc[regIuMeWben]
		rn[regIuMeWbidx] = rc[regIuMeWbidx]
		rn[regIuMeWb2en] = rc[regIuMeWb2en]
		rn[regIuMeWb2idx] = rc[regIuMeWb2idx]
		rn[regIuMeWb2val] = rc[regIuMeWb2val]
		// The architectural state scheduled by a skipped EX must also
		// freeze (executeComb held off all its commits already).
	}
}

// executeCombClean is executeComb compiled against the slab layout.
func (c *Core) executeCombClean() {
	rc, rn, wc := c.rc, c.rn, c.wc
	// Default wire values and register pass-through.
	wc[wireIuFeRedir] = 0
	wc[wireIuFeRedirpc] = rc[regIuCtlExppc] & 0xffffffff
	wc[wireIuExWben] = 0
	wc[wireIuExWbidx] = 0
	wc[wireIuExResult] = 0
	wc[wireIuMdBusy] = 0
	wc[wireIuExTrap] = 0
	wc[wireIuExTt] = 0
	wc[wireIuExMatch] = 0
	wc[wireIuExBrtaken] = 0
	wc[wireIuExAluout] = 0
	wc[wireIuExShout] = 0
	wc[wireIuExMemaddr] = 0
	wc[wireIuExNextcwp] = rc[regIuPsrCwp] & 0x7

	rn[regIuCtlExppc] = rc[regIuCtlExppc]
	rn[regIuCtlExpnpc] = rc[regIuCtlExpnpc]
	rn[regIuPsrIcc] = rc[regIuPsrIcc]
	rn[regIuPsrCwp] = rc[regIuPsrCwp]
	rn[regIuPsrS] = rc[regIuPsrS]
	rn[regIuPsrPs] = rc[regIuPsrPs]
	rn[regIuPsrEt] = rc[regIuPsrEt]
	rn[regIuPsrWim] = rc[regIuPsrWim]
	rn[regIuPsrTbr] = rc[regIuPsrTbr]
	rn[regIuPsrY] = rc[regIuPsrY]
	rn[regIuCtlAnnul] = rc[regIuCtlAnnul]
	rn[regIuCtlRedirt] = rc[regIuCtlRedirt]
	rn[regIuCtlErrm] = rc[regIuCtlErrm]
	rn[regIuCtlHalt] = rc[regIuCtlHalt]
	rn[regIuPsrTt] = rc[regIuPsrTt]
	rn[regIuMdCount] = rc[regIuMdCount]
	rn[regIuMdAcc] = rc[regIuMdAcc]
	rn[regIuMdQuot] = rc[regIuMdQuot]
	rn[regIuMdNeg] = rc[regIuMdNeg]
	rn[regIuMdOvf] = rc[regIuMdOvf]

	meBubble := func() {
		rn[regIuMeValid] = 0
		rn[regIuMeIsmem] = 0
		rn[regIuMeWben] = 0
		rn[regIuMeWb2en] = 0
	}
	meBubble()

	// A data-cache stall freezes EX entirely (stallComb holds the input
	// registers; nothing may commit twice).
	if wc[wireCmemDcStall] != 0 {
		c.StallDCache++
		return
	}
	if rc[regIuCtlErrm] != 0 || rc[regIuCtlHalt] != 0 {
		return
	}
	if rc[regIuExValid] == 0 {
		c.StallEmpty++
		return
	}

	expPC := u32Clean(rc[regIuCtlExppc])
	pc := u32Clean(rc[regIuExPc])
	if pc != expPC {
		// Stale sequential prefetch: bubble it. Redirect fetch unless the
		// expected instruction is already in flight (short forward
		// branches land inside the sequential prefetch window) or a
		// redirect for this expectation was already issued.
		c.StallMismatch++
		inFlight := (rc[regIuRaValid] != 0 && u32Clean(rc[regIuRaPc]) == expPC) ||
			(rc[regIuDeValid] != 0 && u32Clean(rc[regIuDePc]) == expPC) ||
			u32Clean(rc[regIuFePc]) == expPC
		if !inFlight && rc[regIuCtlRedirt] == 0 {
			wc[wireIuFeRedir] = 1
			wc[wireIuFeRedirpc] = uint64(expPC)
			rn[regIuCtlRedirt] = 1
		}
		return
	}
	wc[wireIuExMatch] = 1
	rn[regIuCtlRedirt] = 0

	expNPC := u32Clean(rc[regIuCtlExpnpc])
	advance := func() {
		rn[regIuCtlExppc] = uint64(expNPC)
		rn[regIuCtlExpnpc] = uint64(expNPC + 4)
	}
	jumpTo := func(t uint32) {
		rn[regIuCtlExppc] = uint64(expNPC)
		rn[regIuCtlExpnpc] = uint64(t)
	}

	if rc[regIuCtlAnnul] != 0 {
		// Annulled delay slot: consumes a pipeline slot, no effects.
		c.StallAnnul++
		rn[regIuCtlAnnul] = 0
		advance()
		return
	}

	// Operand reads happen inside the cases that consume them (and the
	// case-specific helpers below), never eagerly: a read-witness on the
	// EX operand registers or the condition codes must see only true
	// consumption. cwp is genuinely consumed every cycle (the wNextCWP
	// default above already reads it).
	op := sparc.Op(rc[regIuExOp])
	cwp := rc[regIuPsrCwp]
	opA := func() uint32 { return u32Clean(rc[regIuExA]) }
	opB := func() uint32 { return u32Clean(rc[regIuExB]) }
	archICC := func() sparc.CC { return sparc.CCFromBits(uint32(rc[regIuPsrIcc])) }

	trap := func(tt uint8) {
		wc[wireIuExTrap] = 1
		wc[wireIuExTt] = uint64(tt)
		rn[regIuPsrTt] = uint64(tt)
		if rc[regIuPsrEt] == 0 {
			rn[regIuCtlErrm] = 1
			return
		}
		newCWP := (cwp + NWindows - 1) % NWindows
		rn[regIuPsrEt] = 0
		rn[regIuPsrPs] = rc[regIuPsrS] & 0x1
		rn[regIuPsrS] = 1
		rn[regIuPsrCwp] = newCWP & 0x7
		wc[wireIuExNextcwp] = newCWP & 0x7
		tbr := u32Clean(rc[regIuPsrTbr])&0xfffff000 | uint32(tt)<<4
		rn[regIuPsrTbr] = uint64(tbr)
		rn[regIuCtlExppc] = uint64(tbr)
		rn[regIuCtlExpnpc] = uint64(tbr + 4)
		rn[regIuCtlAnnul] = 0
		// l1/l2 of the new window receive PC/nPC via the WB ports.
		rn[regIuMeValid] = 1
		rn[regIuMeIsmem] = 0
		rn[regIuMeWben] = 1
		rn[regIuMeWbidx] = physReg(newCWP, sparc.RegL1) & 0xff
		rn[regIuMeResult] = uint64(pc)
		rn[regIuMeWb2en] = 1
		rn[regIuMeWb2idx] = physReg(newCWP, sparc.RegL2) & 0xff
		rn[regIuMeWb2val] = uint64(expNPC)
	}

	// commit pushes a non-memory result toward writeback.
	commit := func(wbEn bool, rd uint64, val uint32) {
		rn[regIuMeValid] = 1
		rn[regIuMeIsmem] = 0
		if wbEn {
			idx := physReg(wc[wireIuExNextcwp], rd&31)
			if idx != 0 {
				rn[regIuMeWben] = 1
				rn[regIuMeWbidx] = idx & 0xff
				rn[regIuMeResult] = uint64(val)
				wc[wireIuExWben] = 1
				wc[wireIuExWbidx] = idx & 0xff
				wc[wireIuExResult] = uint64(val)
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
		wc[wireIuExAluout] = uint64(b)
		commit(true, rc[regIuExRd], b)
		advance()
		retire()
		return

	case op.IsBicc():
		taken := sparc.EvalCond(uint32(rc[regIuExCond]), archICC())
		wc[wireIuExBrtaken] = boolWord(taken)
		if taken {
			t := pc + u32Clean(rc[regIuExDisp])<<2
			jumpTo(t)
			if rc[regIuExAnnulf] != 0 && op == sparc.OpBA {
				rn[regIuCtlAnnul] = 1
			}
		} else {
			if rc[regIuExAnnulf] != 0 {
				rn[regIuCtlAnnul] = 1
			}
			advance()
		}
		commit(false, 0, 0)
		retire()
		return

	case op == sparc.OpCALL:
		t := pc + u32Clean(rc[regIuExDisp])<<2
		jumpTo(t)
		commit(true, 15, pc)
		retire()
		return

	case op.IsTicc():
		if sparc.EvalCond(uint32(rc[regIuExCond]), archICC()) {
			trap(uint8(iss.TrapInstBase + (opA()+opB())&0x7f))
			return
		}
		advance()
		commit(false, 0, 0)
		retire()
		return

	case op == sparc.OpJMPL:
		t := opA() + opB()
		wc[wireIuExMemaddr] = uint64(t)
		if t&3 != 0 {
			trap(iss.TrapMemNotAligned)
			return
		}
		jumpTo(t)
		commit(true, rc[regIuExRd], pc)
		retire()
		return

	case op == sparc.OpRETT:
		if rc[regIuPsrEt] != 0 {
			trap(iss.TrapIllegalInst)
			return
		}
		if rc[regIuPsrS] == 0 {
			trap(iss.TrapPrivilegedInst)
			return
		}
		t := opA() + opB()
		if t&3 != 0 {
			trap(iss.TrapMemNotAligned)
			return
		}
		newCWP := (cwp + 1) % NWindows
		if rc[regIuPsrWim]&(1<<newCWP) != 0 {
			trap(iss.TrapWindowUnderflow)
			return
		}
		rn[regIuPsrCwp] = newCWP & 0x7
		wc[wireIuExNextcwp] = newCWP & 0x7
		rn[regIuPsrS] = rc[regIuPsrPs] & 0x1
		rn[regIuPsrEt] = 1
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
		if rc[regIuPsrWim]&(1<<newCWP) != 0 {
			trap(tt)
			return
		}
		sum := opA() + opB()
		wc[wireIuExAluout] = uint64(sum)
		rn[regIuPsrCwp] = newCWP & 0x7
		wc[wireIuExNextcwp] = newCWP & 0x7
		commit(true, rc[regIuExRd], sum)
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
	wc[wireIuExAluout] = uint64(res)
	wc[wireIuExAlucc] = uint64(cc.Bits()) & 0xf
	if op.SetsCC() {
		rn[regIuPsrIcc] = wc[wireIuExAlucc] & 0xf
	}
	advance()
	retire()

	switch op {
	case sparc.OpWRY:
		rn[regIuPsrY] = uint64(a ^ b)
		commit(false, 0, 0)
	case sparc.OpWRPSR:
		v := a ^ b
		psr := iss.PSRFromBits(v)
		rn[regIuPsrIcc] = uint64(psr.ICC.Bits()) & 0xf
		rn[regIuPsrS] = boolWord(psr.S)
		rn[regIuPsrPs] = boolWord(psr.PS)
		rn[regIuPsrEt] = boolWord(psr.ET)
		rn[regIuPsrCwp] = uint64(psr.CWP) & 0x7
		wc[wireIuExNextcwp] = uint64(psr.CWP) & 0x7
		commit(false, 0, 0)
	case sparc.OpWRWIM:
		rn[regIuPsrWim] = uint64((a^b)&(1<<NWindows-1)) & 0xff
		commit(false, 0, 0)
	case sparc.OpWRTBR:
		rn[regIuPsrTbr] = uint64((a ^ b) & 0xfffff000)
		commit(false, 0, 0)
	default:
		commit(true, rc[regIuExRd], res)
	}
}

// aluTrapTypeClean is aluTrapType compiled against the slab layout.
func (c *Core) aluTrapTypeClean(op sparc.Op) uint8 {
	rc := c.rc
	switch op {
	case sparc.OpRDPSR, sparc.OpRDWIM, sparc.OpRDTBR, sparc.OpWRPSR, sparc.OpWRWIM, sparc.OpWRTBR:
		if rc[regIuPsrS] == 0 {
			return iss.TrapPrivilegedInst
		}
	}
	return iss.TrapIllegalInst
}

// aluOpClean is aluOp compiled against the slab layout.
func (c *Core) aluOpClean(op sparc.Op, a, b uint32, icc sparc.CC) (res uint32, cc sparc.CC, ok bool) {
	rc, rn, wc := c.rc, c.rn, c.wc
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
		wc[wireIuExShout] = uint64(res)
	case sparc.OpSRL:
		res = a >> (b & 31)
		wc[wireIuExShout] = uint64(res)
	case sparc.OpSRA:
		res = uint32(int32(a) >> (b & 31))
		wc[wireIuExShout] = uint64(res)
	case sparc.OpMULSCC:
		op1 := a>>1 | bit(icc.N != icc.V)<<31
		op2 := uint32(0)
		y := u32Clean(rc[regIuPsrY])
		if y&1 != 0 {
			op2 = b
		}
		res, cc = sparc.AddCC(op1, op2, false)
		rn[regIuPsrY] = uint64(y>>1 | (a&1)<<31)
	case sparc.OpRDY:
		res = u32Clean(rc[regIuPsrY])
	case sparc.OpRDPSR:
		if rc[regIuPsrS] == 0 {
			return 0, cc, false
		}
		res = c.psrBitsClean()
	case sparc.OpRDWIM:
		if rc[regIuPsrS] == 0 {
			return 0, cc, false
		}
		res = u32Clean(rc[regIuPsrWim])
	case sparc.OpRDTBR:
		if rc[regIuPsrS] == 0 {
			return 0, cc, false
		}
		res = u32Clean(rc[regIuPsrTbr])
	case sparc.OpWRY:
		res = 0
	case sparc.OpWRPSR, sparc.OpWRWIM, sparc.OpWRTBR:
		if rc[regIuPsrS] == 0 {
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

// psrBitsClean is psrBits compiled against the slab layout.
func (c *Core) psrBitsClean() uint32 {
	rc := c.rc
	p := iss.PSR{
		ICC: sparc.CCFromBits(uint32(rc[regIuPsrIcc])),
		S:   rc[regIuPsrS] != 0,
		PS:  rc[regIuPsrPs] != 0,
		ET:  rc[regIuPsrEt] != 0,
		CWP: uint8(rc[regIuPsrCwp]),
	}
	return p.Bits()
}

// executeMemOpClean is executeMemOp compiled against the slab layout.
func (c *Core) executeMemOpClean(op sparc.Op, a, b uint32, trap func(uint8), advance, retire func()) {
	rc, rn, wc := c.rc, c.rn, c.wc
	addr := a + b
	wc[wireIuExMemaddr] = uint64(addr)
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
	rd := rc[regIuExRd]
	dbl := op == sparc.OpLDD || op == sparc.OpSTD
	if dbl && rd&1 != 0 {
		trap(iss.TrapIllegalInst)
		return
	}

	if op.IsStore() && addr == mem.ExitAddr {
		// The exit device terminates the program once this store drains.
		rn[regIuCtlHalt] = 1
	}

	rn[regIuMeValid] = 1
	rn[regIuMeIsmem] = 1
	rn[regIuMeLoad] = boolWord(op.IsLoad())
	rn[regIuMeStore] = boolWord(op.IsStore() && op != sparc.OpSWAP && op != sparc.OpLDSTUB)
	rn[regIuMeDbl] = boolWord(dbl)
	rn[regIuMeSize] = size & 0x7
	rn[regIuMeSigned] = boolWord(op == sparc.OpLDSB || op == sparc.OpLDSH)
	rn[regIuMeAddr] = uint64(addr)
	if op.IsStore() {
		// Loads never consume the write-data port; reading sd for them
		// would make every load an observer of the store-data path.
		rn[regIuMeWdata] = rc[regIuExSd] & 0xffffffff
	}
	rn[regIuMeSwapf] = boolWord(op == sparc.OpSWAP)
	rn[regIuMeStub] = boolWord(op == sparc.OpLDSTUB)

	if op.IsLoad() {
		idx := physReg(wc[wireIuExNextcwp], rd&31)
		if idx != 0 {
			rn[regIuMeWben] = 1
			rn[regIuMeWbidx] = idx & 0xff
		}
		if op == sparc.OpLDD {
			rn[regIuMeWb2en] = 1
			rn[regIuMeWb2idx] = physReg(wc[wireIuExNextcwp], (rd|1)&31) & 0xff
		}
	}
	if op == sparc.OpSTD {
		// The second word travels via the sd path read at RA? STD needs
		// rd|1 as well: it was read as part of the bypass network below.
		rn[regIuMeWdata2] = uint64(c.stdSecondWordClean())
	}
	advance()
	retire()
}

// stdSecondWordClean is stdSecondWord compiled against the slab layout.
func (c *Core) stdSecondWordClean() uint32 {
	rc, wc := c.rc, c.wc
	idx := physReg(wc[wireIuExNextcwp], (rc[regIuExRd]|1)&31)
	if idx == 0 {
		return 0
	}
	v := c.rf.ReadRaw(int(idx % physRegCnt))
	if rc[regIuXcValid] != 0 {
		if rc[regIuXcWben] != 0 && rc[regIuXcWbidx] == idx {
			v = rc[regIuXcWbval]
		}
		if rc[regIuXcWb2en] != 0 && rc[regIuXcWb2idx] == idx {
			v = rc[regIuXcWb2val]
		}
	}
	if rc[regIuMeValid] != 0 { // ME is younger than XC: it wins
		if rc[regIuMeWben] != 0 && rc[regIuMeWbidx] == idx {
			v = wc[wireIuMeWbval]
		}
		if rc[regIuMeWb2en] != 0 && rc[regIuMeWb2idx] == idx {
			v = wc[wireIuMeWb2valw]
		}
	}
	return uint32(v)
}

// executeMulDivClean is executeMulDiv compiled against the slab layout.
func (c *Core) executeMulDivClean(op sparc.Op, a, b uint32,
	trap func(uint8), advance, retire func(), commit func(bool, uint64, uint32)) {
	rc, rn, wc := c.rc, c.rn, c.wc

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

	switch cnt := rc[regIuMdCount]; {
	case cnt == 0: // issue cycle
		if isDiv {
			if b == 0 {
				trap(iss.TrapDivByZero)
				return
			}
			dividend := rc[regIuPsrY]<<32 | uint64(a)
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
			rn[regIuMdAcc] = dividend
			rn[regIuMdQuot] = 0
			rn[regIuMdNeg] = boolWord(neg)
			rn[regIuMdOvf] = boolWord(dividend>>32 >= divisor)
			rn[regIuMdCount] = 33 // 32 bit-steps + finalize
		} else {
			rn[regIuMdAcc] = 0
			rn[regIuMdNeg] = boolWord(neg)
			rn[regIuMdOvf] = 0
			rn[regIuMdCount] = mulCycles // 4 byte-steps + finalize
		}
		wc[wireIuMdBusy] = 1
		c.StallMulDiv++
		return

	case cnt > 1: // iteration
		if isDiv {
			if rc[regIuMdOvf] == 0 {
				divisor := mb
				if !signedOp {
					divisor = uint64(b)
				}
				i := cnt - 2 // bit index 31..0
				acc := rc[regIuMdAcc]
				rem := acc >> 32
				low := acc & 0xffffffff
				rem = rem<<1 | (low>>i)&1
				q := rc[regIuMdQuot]
				if rem >= divisor {
					rem -= divisor
					q |= 1 << i
				}
				rn[regIuMdAcc] = rem<<32 | low
				rn[regIuMdQuot] = q & 0xffffffff
			}
		} else {
			j := mulCycles - cnt // byte index 0..3
			part := (ma * (mb >> (8 * j) & 0xff)) << (8 * j)
			rn[regIuMdAcc] = rc[regIuMdAcc] + part
		}
		rn[regIuMdCount] = (cnt - 1) & 0x3f
		wc[wireIuMdBusy] = 1
		c.StallMulDiv++
		return
	}

	// cnt == 1: finalize and retire.
	rn[regIuMdCount] = 0
	var res uint32
	var cc sparc.CC
	if isDiv {
		q := rc[regIuMdQuot]
		v := false
		if signedOp {
			limit := uint64(0x7fffffff)
			if rc[regIuMdNeg] != 0 {
				limit = 0x80000000
			}
			if rc[regIuMdOvf] != 0 || q > limit {
				v = true
				q = limit
			}
			if rc[regIuMdNeg] != 0 {
				q = uint64(uint32(-int32(uint32(q))))
			}
		} else if rc[regIuMdOvf] != 0 {
			v = true
			q = 0xffffffff
		}
		res = uint32(q)
		cc = sparc.LogicCC(res)
		cc.V = v
	} else {
		prod := rc[regIuMdAcc]
		if rc[regIuMdNeg] != 0 {
			prod = -prod
		}
		res = uint32(prod)
		rn[regIuPsrY] = prod >> 32 & 0xffffffff
		cc = sparc.LogicCC(res)
	}
	if op.SetsCC() {
		rn[regIuPsrIcc] = uint64(cc.Bits()) & 0xf
	}
	wc[wireIuExAluout] = uint64(res)
	commit(true, rc[regIuExRd], res)
	advance()
	retire()
}

// boolWord is the word a 1-bit net holds for b.
func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
