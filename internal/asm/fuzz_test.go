package asm

import (
	"testing"

	"repro/internal/sparc"
)

// FuzzInstRoundTrip holds the assembler and the decoder to one instruction
// set: for an arbitrary word that sparc.Decode reads as a defined
// instruction, encoding the decoded instruction and decoding it again gives
// the same instruction (only the raw word may differ, by bits the format
// reserves); and where the disassembly is assembler syntax that names every
// field the encoder writes — ALU, memory, sethi, rd and wr instructions,
// their register forms with a zero asi field, rd's only with its unused
// fields zero — assembling it yields exactly Encode(Decode(w)).
//
// Smoke: make fuzz-smoke; longer:
// go test -run '^$' -fuzz FuzzInstRoundTrip -fuzztime 5m ./internal/asm/
func FuzzInstRoundTrip(f *testing.F) {
	for _, w := range []uint32{
		0x01000000, // nop
		0x03100000, // sethi %hi(0x40000000), %g1
		0x9402000a, // add %o0, %o2, %o2
		0x86a0a005, // subcc %g2, 5, %g3
		0xd2022008, // ld [%o0+8], %o1
		0xd42bbffc, // stb %o2, [%sp-4]
		0xd0022000, // ld [%o0], %o0
		0xd0020000, // ld [%o0+%g0], %o0
		0x85480000, // rd %psr, %g2
		0x81884000, // wr %g1, %g0, %psr
		0x81802007, // wr %g0, 7, %y
		0x9de3bfa0, // save %sp, -96, %sp
		0x91d02005, // ta 5
		0x12bffffe, // bne -2
		0x40000010, // call +16
	} {
		f.Add(w)
	}
	f.Fuzz(func(t *testing.T, w uint32) {
		in := sparc.Decode(w)
		if in.Op == sparc.OpUnknown {
			return
		}
		enc := sparc.Encode(in)
		again := sparc.Decode(enc)
		again.Raw, in.Raw = w, w
		if again != in {
			t.Fatalf("%#08x: Decode %+v, Decode(Encode) %+v", w, in, again)
		}
		if !spelledOut(&in) {
			return
		}
		src := in.String()
		p, err := Assemble(src+"\n", 0x40000000)
		if err != nil {
			t.Fatalf("%#08x: %q does not assemble: %v", w, src, err)
		}
		if p.Size() != 4 {
			t.Fatalf("%#08x: %q assembles to %d bytes, want one word", w, src, p.Size())
		}
		if got := p.Word(0x40000000); got != enc {
			t.Fatalf("%#08x: %q assembles to %#08x, Encode(Decode) is %#08x", w, src, got, enc)
		}
	})
}

// spelledOut reports whether in's disassembly is assembler syntax naming
// every field Encode writes for it: an ALU, memory, sethi, rd or wr
// instruction, with a zero asi field in register form — the syntax has no
// asi — and, for rd, nothing in rs1, rs2 or the immediate bit, which its
// syntax does not name either. Branches, calls, traps, jmpl and rett print
// what the assembler does not read back (a displacement for a label, a trap
// without its rs1, an address without brackets) and are left out.
func spelledOut(in *sparc.Inst) bool {
	op := in.Op
	if !in.Imm && in.Asi != 0 {
		return false
	}
	switch {
	case op == sparc.OpSETHI:
		return true
	case op == sparc.OpRDY || op == sparc.OpRDPSR || op == sparc.OpRDWIM || op == sparc.OpRDTBR:
		return in.Rs1 == 0 && !in.Imm && in.Rs2 == 0
	case op.Format() != 3 || op.IsTicc() || op == sparc.OpJMPL || op == sparc.OpRETT:
		return false
	}
	return true
}
