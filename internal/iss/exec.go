package iss

import "repro/internal/sparc"

// trap redirects control to the trap vector. A trap taken while traps are
// disabled puts the processor in error mode (execution halts), which the
// failure comparator observes as a truncated off-core trace.
func (c *CPU) trap(tt uint8) {
	c.trapped = true
	if !c.PSR.ET {
		c.status = StatusErrorMode
		c.trapType = tt
		return
	}
	c.PSR.ET = false
	c.PSR.PS = c.PSR.S
	c.PSR.S = true
	c.PSR.CWP = (c.PSR.CWP + NWindows - 1) % NWindows
	c.SetReg(sparc.RegL1, c.PC)
	c.SetReg(sparc.RegL2, c.NPC)
	c.TBR = c.TBR&0xfffff000 | uint32(tt)<<4
	c.PC = c.TBR
	c.NPC = c.TBR + 4
	c.annul = false
	c.trapType = tt
}

// advance moves sequentially past the current instruction.
func (c *CPU) advance() {
	c.PC = c.NPC
	c.NPC += 4
}

// Step executes one instruction (or consumes one annulled delay slot).
func (c *CPU) Step() {
	if c.status != StatusRunning {
		return
	}
	if c.PC&3 != 0 {
		c.trap(TrapMemNotAligned)
		return
	}
	if c.annul {
		c.annul = false
		c.Annulled++
		c.advance()
		return
	}
	// One fast path — the decode-once table — and fetch + decode, as
	// always, for whatever it does not vouch for.
	var fetched sparc.Inst
	in := c.text.at(c.PC, c.Bus)
	if in == nil {
		fetched = sparc.Decode(c.Bus.Fetch32(c.PC))
		in = &fetched
	}
	pc := c.PC
	c.trapped = false
	c.exec(in)
	// A trapped instruction did not complete: it re-executes after the
	// handler returns and must not be counted twice.
	if !c.trapped && (c.status == StatusRunning || c.status == StatusExited) {
		c.Icount++
		c.OpCounts[in.Op]++
		if c.OnInst != nil {
			c.OnInst(pc, *in)
		}
	}
	if c.Bus.Exited() {
		c.status = StatusExited
	}
}

// operand2 evaluates the second ALU operand (register or immediate).
func (c *CPU) operand2(in *sparc.Inst) uint32 {
	if in.Imm {
		return uint32(in.Simm13)
	}
	return c.Reg(in.Rs2)
}

func (c *CPU) exec(in *sparc.Inst) {
	op := in.Op
	switch {
	case op == sparc.OpUnknown:
		c.trap(TrapIllegalInst)
	case op == sparc.OpSETHI:
		c.SetReg(in.Rd, uint32(in.Imm22)<<10)
		c.advance()
	case op.IsBicc():
		c.execBicc(in)
	case op == sparc.OpCALL:
		t := in.Target(c.PC)
		c.SetReg(15, c.PC)
		c.PC = c.NPC
		c.NPC = t
	case op.IsTicc():
		if sparc.EvalCond(op.Cond(), c.PSR.ICC) {
			tn := (c.Reg(in.Rs1) + c.operand2(in)) & 0x7f
			c.trap(uint8(TrapInstBase + tn))
			return
		}
		c.advance()
	case op == sparc.OpJMPL:
		t := c.Reg(in.Rs1) + c.operand2(in)
		if t&3 != 0 {
			c.trap(TrapMemNotAligned)
			return
		}
		c.SetReg(in.Rd, c.PC)
		c.PC = c.NPC
		c.NPC = t
	case op == sparc.OpRETT:
		c.execRett(in)
	case op == sparc.OpSAVE || op == sparc.OpRESTORE:
		c.execWindow(in)
	case op.IsMemory():
		c.execMem(in)
	default:
		c.execALU(in)
	}
}

func (c *CPU) execBicc(in *sparc.Inst) {
	taken := sparc.EvalCond(in.Op.Cond(), c.PSR.ICC)
	if taken {
		t := in.Target(c.PC)
		c.PC = c.NPC
		c.NPC = t
		// Only the unconditional BA annuls its delay slot when taken.
		if in.Annul && in.Op == sparc.OpBA {
			c.annul = true
		}
		return
	}
	if in.Annul {
		c.annul = true
	}
	c.advance()
}

func (c *CPU) execRett(in *sparc.Inst) {
	if c.PSR.ET {
		c.trap(TrapIllegalInst)
		return
	}
	if !c.PSR.S {
		c.trap(TrapPrivilegedInst)
		return
	}
	t := c.Reg(in.Rs1) + c.operand2(in)
	if t&3 != 0 {
		c.trap(TrapMemNotAligned)
		return
	}
	newCWP := (c.PSR.CWP + 1) % NWindows
	if c.WIM&(1<<newCWP) != 0 {
		c.trap(TrapWindowUnderflow)
		return
	}
	c.PSR.CWP = newCWP
	c.PSR.S = c.PSR.PS
	c.PSR.ET = true
	c.PC = c.NPC
	c.NPC = t
}

func (c *CPU) execWindow(in *sparc.Inst) {
	var newCWP uint8
	var trapType uint8
	if in.Op == sparc.OpSAVE {
		newCWP = (c.PSR.CWP + NWindows - 1) % NWindows
		trapType = TrapWindowOverflow
	} else {
		newCWP = (c.PSR.CWP + 1) % NWindows
		trapType = TrapWindowUnderflow
	}
	if c.WIM&(1<<newCWP) != 0 {
		c.trap(trapType)
		return
	}
	// Source operands come from the old window, the result goes to rd in
	// the new window.
	v := c.Reg(in.Rs1) + c.operand2(in)
	c.PSR.CWP = newCWP
	c.SetReg(in.Rd, v)
	c.advance()
}

func (c *CPU) execMem(in *sparc.Inst) {
	addr := c.Reg(in.Rs1) + c.operand2(in)
	op := in.Op
	var align uint32
	switch op {
	case sparc.OpLD, sparc.OpST, sparc.OpSWAP:
		align = 3
	case sparc.OpLDUH, sparc.OpLDSH, sparc.OpSTH:
		align = 1
	case sparc.OpLDD, sparc.OpSTD:
		align = 7
	}
	if addr&align != 0 {
		c.trap(TrapMemNotAligned)
		return
	}
	if (op == sparc.OpLDD || op == sparc.OpSTD) && in.Rd&1 != 0 {
		c.trap(TrapIllegalInst)
		return
	}
	switch op {
	case sparc.OpLD:
		c.SetReg(in.Rd, c.Bus.Read(addr, 4, c.Icount))
	case sparc.OpLDUB:
		c.SetReg(in.Rd, c.Bus.Read(addr, 1, c.Icount))
	case sparc.OpLDSB:
		c.SetReg(in.Rd, uint32(int32(int8(c.Bus.Read(addr, 1, c.Icount)))))
	case sparc.OpLDUH:
		c.SetReg(in.Rd, c.Bus.Read(addr, 2, c.Icount))
	case sparc.OpLDSH:
		c.SetReg(in.Rd, uint32(int32(int16(c.Bus.Read(addr, 2, c.Icount)))))
	case sparc.OpLDD:
		c.SetReg(in.Rd, c.Bus.Read(addr, 4, c.Icount))
		c.SetReg(in.Rd|1, c.Bus.Read(addr+4, 4, c.Icount))
	case sparc.OpST:
		c.Bus.Write(addr, 4, c.Reg(in.Rd), c.Icount)
	case sparc.OpSTB:
		c.Bus.Write(addr, 1, c.Reg(in.Rd)&0xff, c.Icount)
	case sparc.OpSTH:
		c.Bus.Write(addr, 2, c.Reg(in.Rd)&0xffff, c.Icount)
	case sparc.OpSTD:
		c.Bus.Write(addr, 4, c.Reg(in.Rd), c.Icount)
		c.Bus.Write(addr+4, 4, c.Reg(in.Rd|1), c.Icount)
	case sparc.OpLDSTUB:
		c.SetReg(in.Rd, c.Bus.Read(addr, 1, c.Icount))
		c.Bus.Write(addr, 1, 0xff, c.Icount)
	case sparc.OpSWAP:
		old := c.Bus.Read(addr, 4, c.Icount)
		c.Bus.Write(addr, 4, c.Reg(in.Rd), c.Icount)
		c.SetReg(in.Rd, old)
	}
	c.advance()
}

func (c *CPU) execALU(in *sparc.Inst) {
	a := c.Reg(in.Rs1)
	b := c.operand2(in)
	op := in.Op
	var res uint32
	cc := c.PSR.ICC
	setCC := op.SetsCC()
	switch op {
	case sparc.OpADD, sparc.OpADDCC:
		res, cc = sparc.AddCC(a, b, false)
	case sparc.OpADDX, sparc.OpADDXCC:
		res, cc = sparc.AddCC(a, b, c.PSR.ICC.C)
	case sparc.OpSUB, sparc.OpSUBCC:
		res, cc = sparc.SubCC(a, b, false)
	case sparc.OpSUBX, sparc.OpSUBXCC:
		res, cc = sparc.SubCC(a, b, c.PSR.ICC.C)
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
	case sparc.OpSRL:
		res = a >> (b & 31)
	case sparc.OpSRA:
		res = uint32(int32(a) >> (b & 31))
	case sparc.OpUMUL, sparc.OpUMULCC:
		wide := uint64(a) * uint64(b)
		res = uint32(wide)
		c.Y = uint32(wide >> 32)
		cc = sparc.LogicCC(res)
	case sparc.OpSMUL, sparc.OpSMULCC:
		wide := int64(int32(a)) * int64(int32(b))
		res = uint32(wide)
		c.Y = uint32(uint64(wide) >> 32)
		cc = sparc.LogicCC(res)
	case sparc.OpMULSCC:
		// V8 multiply step: one bit of a Booth-free iterative multiply.
		op1 := a>>1 | boolBit(c.PSR.ICC.N != c.PSR.ICC.V)<<31
		op2 := uint32(0)
		if c.Y&1 != 0 {
			op2 = b
		}
		res, cc = sparc.AddCC(op1, op2, false)
		c.Y = c.Y>>1 | (a&1)<<31
	case sparc.OpUDIV, sparc.OpUDIVCC:
		if b == 0 {
			c.trap(TrapDivByZero)
			return
		}
		wide := uint64(c.Y)<<32 | uint64(a)
		q := wide / uint64(b)
		v := false
		if q > 0xffffffff {
			q = 0xffffffff
			v = true
		}
		res = uint32(q)
		cc = sparc.LogicCC(res)
		cc.V = v
	case sparc.OpSDIV, sparc.OpSDIVCC:
		if b == 0 {
			c.trap(TrapDivByZero)
			return
		}
		wide := int64(uint64(c.Y)<<32 | uint64(a))
		q := wide / int64(int32(b))
		v := false
		if q > 0x7fffffff {
			q = 0x7fffffff
			v = true
		} else if q < -0x80000000 {
			q = -0x80000000
			v = true
		}
		res = uint32(q)
		cc = sparc.LogicCC(res)
		cc.V = v
	case sparc.OpRDY:
		res = c.Y
	case sparc.OpRDPSR:
		if !c.PSR.S {
			c.trap(TrapPrivilegedInst)
			return
		}
		res = c.PSR.Bits()
	case sparc.OpRDWIM:
		if !c.PSR.S {
			c.trap(TrapPrivilegedInst)
			return
		}
		res = c.WIM
	case sparc.OpRDTBR:
		if !c.PSR.S {
			c.trap(TrapPrivilegedInst)
			return
		}
		res = c.TBR
	case sparc.OpWRY:
		c.Y = a ^ b
		c.advance()
		return
	case sparc.OpWRPSR:
		if !c.PSR.S {
			c.trap(TrapPrivilegedInst)
			return
		}
		v := a ^ b
		if v&0x1f >= NWindows {
			c.trap(TrapIllegalInst)
			return
		}
		c.PSR = PSRFromBits(v)
		c.advance()
		return
	case sparc.OpWRWIM:
		if !c.PSR.S {
			c.trap(TrapPrivilegedInst)
			return
		}
		c.WIM = (a ^ b) & (1<<NWindows - 1)
		c.advance()
		return
	case sparc.OpWRTBR:
		if !c.PSR.S {
			c.trap(TrapPrivilegedInst)
			return
		}
		c.TBR = (a ^ b) & 0xfffff000
		c.advance()
		return
	default:
		c.trap(TrapIllegalInst)
		return
	}
	c.SetReg(in.Rd, res)
	if setCC {
		c.PSR.ICC = cc
	}
	c.advance()
}

func boolBit(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Run executes until the program exits, the processor enters error mode, or
// maxInsts instructions have executed. It returns the terminal status.
func (c *CPU) Run(maxInsts uint64) Status {
	for c.status == StatusRunning && c.Icount < maxInsts {
		c.Step()
	}
	if c.status == StatusRunning {
		c.status = StatusBudget
	}
	return c.status
}
