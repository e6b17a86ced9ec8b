package sparc

import "fmt"

// Register indices of the architecturally visible integer registers within
// the current window: %g0..%g7 are r0..r7, %o0..%o7 are r8..r15, %l0..%l7
// are r16..r23 and %i0..%i7 are r24..r31.
const (
	RegG0 = 0
	RegO0 = 8
	RegO6 = 14 // %sp
	RegO7 = 15 // call return address
	RegL0 = 16
	RegL1 = 17 // trap PC
	RegL2 = 18 // trap nPC
	RegI0 = 24
	RegI6 = 30 // %fp
	RegI7 = 31 // caller's return address
)

// RegName returns the conventional assembler name of register r (0..31).
func RegName(r int) string {
	switch {
	case r == 14:
		return "%sp"
	case r == 30:
		return "%fp"
	case r < 8:
		return fmt.Sprintf("%%g%d", r)
	case r < 16:
		return fmt.Sprintf("%%o%d", r-8)
	case r < 24:
		return fmt.Sprintf("%%l%d", r-16)
	case r < 32:
		return fmt.Sprintf("%%i%d", r-24)
	}
	return fmt.Sprintf("%%r%d", r)
}

// Inst is a decoded SPARC V8 instruction.
type Inst struct {
	Raw uint32 // instruction word
	Op  Op     // instruction type

	Rd  int // destination register (format 3, SETHI)
	Rs1 int // first source register
	Rs2 int // second source register (when Imm is false)

	Imm    bool  // format 3 uses simm13 instead of rs2
	Simm13 int32 // sign-extended 13-bit immediate
	Imm22  int32 // SETHI immediate / Bicc displacement (sign-extended words)
	Disp30 int32 // CALL displacement (sign-extended words)
	Annul  bool  // Bicc annul bit
	Asi    uint8 // alternate space identifier (format 3 register forms)
}

// Operand2 is unset for instructions without a second ALU operand.
//
// Target returns the control-transfer target of a PC-relative instruction
// located at address pc.
func (in *Inst) Target(pc uint32) uint32 {
	switch in.Op.Format() {
	case 1:
		return pc + uint32(in.Disp30)<<2
	case 2:
		return pc + uint32(in.Imm22)<<2
	}
	return 0
}

// String disassembles the instruction (without PC-relative resolution).
// For an ALU, memory, sethi, rd or wr instruction whose register form
// leaves the asi field zero — and, for rd, every field but rd — it is
// assembler syntax that assembles back to exactly the word's encoding.
func (in *Inst) String() string {
	op := in.Op
	switch {
	case op == OpUnknown:
		return fmt.Sprintf(".word 0x%08x", in.Raw)
	case op == OpSETHI:
		if in.Rd == 0 && in.Imm22 == 0 {
			return "nop"
		}
		return fmt.Sprintf("sethi %%hi(0x%x), %s", uint32(in.Imm22)<<10, RegName(in.Rd))
	case op.IsBicc():
		a := ""
		if in.Annul {
			a = ",a"
		}
		return fmt.Sprintf("%s%s %+d", op, a, in.Imm22)
	case op == OpCALL:
		return fmt.Sprintf("call %+d", in.Disp30)
	case op.IsTicc():
		return fmt.Sprintf("%s %s", op, in.op2str())
	case op >= OpRDY && op <= OpWRTBR:
		sr := specialRegs[(op-OpRDY)/2]
		if (op-OpRDY)%2 == 0 {
			return fmt.Sprintf("rd %s, %s", sr, RegName(in.Rd))
		}
		return fmt.Sprintf("wr %s, %s, %s", RegName(in.Rs1), in.op2str(), sr)
	case op.IsLoad() && !op.IsStore():
		return fmt.Sprintf("%s [%s], %s", op, in.addrStr(), RegName(in.Rd))
	case op.IsStore() && !op.IsLoad():
		return fmt.Sprintf("%s %s, [%s]", op, RegName(in.Rd), in.addrStr())
	case op == OpLDSTUB || op == OpSWAP:
		return fmt.Sprintf("%s [%s], %s", op, in.addrStr(), RegName(in.Rd))
	case op == OpJMPL:
		return fmt.Sprintf("jmpl %s, %s", in.addrStr(), RegName(in.Rd))
	case op == OpRETT:
		return fmt.Sprintf("rett %s", in.addrStr())
	}
	return fmt.Sprintf("%s %s, %s, %s", op, RegName(in.Rs1), in.op2str(), RegName(in.Rd))
}

// specialRegs names the state registers rd and wr access, in the order of
// their ops (OpRDY, OpWRY, OpRDPSR, …).
var specialRegs = [...]string{"%y", "%psr", "%wim", "%tbr"}

func (in *Inst) op2str() string {
	if in.Imm {
		return fmt.Sprintf("%d", in.Simm13)
	}
	return RegName(in.Rs2)
}

func (in *Inst) addrStr() string {
	if in.Imm {
		if in.Simm13 == 0 {
			return RegName(in.Rs1)
		}
		return fmt.Sprintf("%s%+d", RegName(in.Rs1), in.Simm13)
	}
	return fmt.Sprintf("%s+%s", RegName(in.Rs1), RegName(in.Rs2))
}
