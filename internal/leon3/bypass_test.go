package leon3

import (
	"fmt"
	"testing"

	"repro/internal/rtl"
	"repro/internal/sparc"
)

// bypassPort is one producer regaccessComb's operand read can take a value
// from instead of the register file. bypassPorts lists them youngest first
// — the order the read must honour: EX, then ME, then XC, the second
// writeback port before the first within a stage.
type bypassPort struct {
	name          string
	en, idx, val  func(c *Core) *rtl.Signal
	stageValid    func(c *Core) *rtl.Signal // nil: the EX wires have no stage bit
	valueIfServed uint64
}

var bypassPorts = []bypassPort{
	{"EX", func(c *Core) *rtl.Signal { return c.wExWbEn }, func(c *Core) *rtl.Signal { return c.wExWbIdx },
		func(c *Core) *rtl.Signal { return c.wExResult }, nil, 0xe0},
	{"ME.wb2", func(c *Core) *rtl.Signal { return c.me.wb2En }, func(c *Core) *rtl.Signal { return c.me.wb2Idx },
		func(c *Core) *rtl.Signal { return c.wMeWb2Val }, func(c *Core) *rtl.Signal { return c.me.valid }, 0xa2},
	{"ME.wb", func(c *Core) *rtl.Signal { return c.me.wbEn }, func(c *Core) *rtl.Signal { return c.me.wbIdx },
		func(c *Core) *rtl.Signal { return c.wMeWbVal }, func(c *Core) *rtl.Signal { return c.me.valid }, 0xa1},
	{"XC.wb2", func(c *Core) *rtl.Signal { return c.xc.wb2En }, func(c *Core) *rtl.Signal { return c.xc.wb2Idx },
		func(c *Core) *rtl.Signal { return c.xc.wb2Val }, func(c *Core) *rtl.Signal { return c.xc.valid }, 0xc2},
	{"XC.wb", func(c *Core) *rtl.Signal { return c.xc.wbEn }, func(c *Core) *rtl.Signal { return c.xc.wbIdx },
		func(c *Core) *rtl.Signal { return c.xc.wbVal }, func(c *Core) *rtl.Signal { return c.xc.valid }, 0xc1},
}

const (
	bypassReg = 5    // %g5: physical word 5 under any window
	rfValue   = 0xf0 // what the register file holds there
)

// readOperand runs regaccessComb once on a core whose RA stage holds
// `add %g5, 1, %g0` and whose bypass ports are enabled, each with its own
// value, writing %g5 where matching has their bit (in bypassPorts order)
// and another register elsewhere; squashed lists stages whose valid bit is
// low. It returns the operand latched for EX and what a witness on the
// register-file word saw.
func readOperand(t *testing.T, matching uint, squashed ...string) (uint64, rtl.WitnessAcc) {
	t.Helper()
	p, err := assembleProg("start:\n\tnop\n")
	if err != nil {
		t.Fatal(err)
	}
	c := newCore(p)
	c.ra.valid.Set(1)
	c.ra.op.Set(uint64(sparc.OpADD))
	c.ra.rs1.Set(bypassReg)
	c.ra.imm.Set(1)
	c.rf.Write(bypassReg, rfValue)
	for i, port := range bypassPorts {
		port.en(c).Set(1)
		port.idx(c).Set(bypassReg + 1)
		if matching>>i&1 != 0 {
			port.idx(c).Set(bypassReg)
		}
		port.val(c).Set(port.valueIfServed)
		if port.stageValid != nil {
			port.stageValid(c).Set(1)
		}
	}
	for _, stage := range squashed {
		map[string]*rtl.Signal{"ME": c.me.valid, "XC": c.xc.valid}[stage].Set(0)
	}
	w, err := c.K.StartWitness([]rtl.WitnessNet{{Name: "iu.rf.regs", Word: bypassReg}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	c.regaccessComb()
	var acc rtl.WitnessAcc
	for _, e := range w.Drain(nil) {
		acc = e.Acc
	}
	return c.wRaOp1.Get(), acc
}

// TestBypassedOperandIsNotRead: an operand a bypass supplies leaves the
// register-file word unread — a fault there was not consumed, and a
// witness on the word must not say it was — and an operand nothing
// bypasses reads it.
func TestBypassedOperandIsNotRead(t *testing.T) {
	for i, port := range bypassPorts {
		got, acc := readOperand(t, 1<<i)
		if got != port.valueIfServed {
			t.Errorf("%s bypass: operand %#x, want %#x", port.name, got, port.valueIfServed)
		}
		if acc != (rtl.WitnessAcc{}) {
			t.Errorf("%s bypass supplied the operand and the register file was read all the same: %+v", port.name, acc)
		}
	}
	got, acc := readOperand(t, 0)
	if got != rfValue {
		t.Errorf("no bypass: operand %#x, want the register file's %#x", got, rfValue)
	}
	if acc.Ones != rfValue || uint32(acc.Zeros) != ^uint32(rfValue) {
		t.Errorf("no bypass: the witness on the register-file word recorded %+v, want a read of %#x", acc, rfValue)
	}
}

// TestYoungestBypassWins pins the priority of the operand read over every
// combination of matching ports: the youngest matching producer supplies
// the value (EX over ME over XC, wb2 over wb within a stage), a squashed
// stage's ports supply nothing, and the register file is read exactly when
// no port does.
func TestYoungestBypassWins(t *testing.T) {
	stageOf := func(i int) string { return bypassPorts[i].name[:2] }
	for _, squashed := range [][]string{nil, {"ME"}, {"XC"}, {"ME", "XC"}} {
		for matching := uint(0); matching < 1<<len(bypassPorts); matching++ {
			want, served := uint64(rfValue), false
			for i := len(bypassPorts) - 1; i >= 0; i-- {
				live := true
				for _, s := range squashed {
					live = live && stageOf(i) != s
				}
				if matching>>i&1 != 0 && live {
					want, served = bypassPorts[i].valueIfServed, true
				}
			}
			got, acc := readOperand(t, matching, squashed...)
			var ports []string
			for i, port := range bypassPorts {
				if matching>>i&1 != 0 {
					ports = append(ports, port.name)
				}
			}
			name := fmt.Sprintf("matching %v, squashed %v", ports, squashed)
			if got != want {
				t.Errorf("%s: operand %#x, want %#x", name, got, want)
			}
			if read := acc != (rtl.WitnessAcc{}); read == served {
				t.Errorf("%s: register file read %v with a bypass serving %v", name, read, served)
			}
		}
	}
}
