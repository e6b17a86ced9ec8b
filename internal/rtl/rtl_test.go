package rtl

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func TestWireAndRegSemantics(t *testing.T) {
	k := NewKernel()
	w := k.Wire("w", 8, 0)
	r := k.Reg("r", 8, 0)
	k.Comb(func() { w.Set(w.Get() + 1); r.SetNext(w.Get()) })
	k.Cycle()
	// Wire took effect within the cycle; register committed at the edge.
	if w.Get() != 1 || r.Get() != 1 {
		t.Fatalf("after cycle 1: w=%d r=%d", w.Get(), r.Get())
	}
	k.Cycle()
	if w.Get() != 2 || r.Get() != 2 {
		t.Fatalf("after cycle 2: w=%d r=%d", w.Get(), r.Get())
	}
	if k.Now() != 2 {
		t.Errorf("cycle count %d", k.Now())
	}
}

func TestRegisterReadsOldValueDuringEval(t *testing.T) {
	k := NewKernel()
	r := k.Reg("r", 16, 0)
	var seen []uint64
	k.Comb(func() {
		seen = append(seen, r.Get())
		r.SetNext(r.Get() + 3)
	})
	k.Cycle()
	k.Cycle()
	k.Cycle()
	if seen[0] != 0 || seen[1] != 3 || seen[2] != 6 {
		t.Fatalf("register visibility wrong: %v", seen)
	}
}

func TestHold(t *testing.T) {
	k := NewKernel()
	r := k.Reg("r", 8, 0)
	hold := false
	k.Comb(func() {
		r.SetNext(r.Get() + 1)
		if hold {
			r.Hold()
		}
	})
	k.Cycle()
	hold = true
	k.Cycle()
	k.Cycle()
	if r.Get() != 1 {
		t.Fatalf("hold failed: r=%d", r.Get())
	}
}

func TestWidthMasking(t *testing.T) {
	k := NewKernel()
	w := k.Wire("w", 5, 0)
	w.Set(0xfff)
	if w.Get() != 0x1f {
		t.Errorf("5-bit wire = %#x", w.Get())
	}
	w64 := k.Wire("w64", 64, 0)
	w64.Set(^uint64(0))
	if w64.Get() != ^uint64(0) {
		t.Errorf("64-bit wire lost bits")
	}
}

func TestStuckAtFaultOnWire(t *testing.T) {
	k := NewKernel()
	w := k.Wire("iu.w", 8, 0)
	w.Set(0)
	if err := k.Inject(Fault{Node{Name: "iu.w", Bit: 3}, StuckAt1}); err != nil {
		t.Fatal(err)
	}
	if w.Get() != 8 {
		t.Errorf("sa1 read = %#x, want 8", w.Get())
	}
	w.Set(0xff)
	if err := k.Inject(Fault{Node{Name: "iu.w", Bit: 0}, StuckAt0}); err != nil {
		t.Fatal(err)
	}
	if w.Get() != 0xfe {
		t.Errorf("sa0 read = %#x, want 0xfe", w.Get())
	}
	k.ClearFaults()
	if w.Get() != 0xff {
		t.Errorf("after clear = %#x", w.Get())
	}
}

func TestOpenLineFreezesValue(t *testing.T) {
	k := NewKernel()
	w := k.Wire("w", 8, 0)
	w.Set(0b100)
	if err := k.Inject(Fault{Node{Name: "w", Bit: 2}, OpenLine}); err != nil {
		t.Fatal(err)
	}
	w.Set(0)
	if w.Get() != 0b100 {
		t.Errorf("open-line did not retain: %#x", w.Get())
	}
	// A bit that was 0 at injection stays 0.
	w2 := k.Wire("w2", 8, 0)
	w2.Set(0)
	if err := k.Inject(Fault{Node{Name: "w2", Bit: 5}, OpenLine}); err != nil {
		t.Fatal(err)
	}
	w2.Set(0xff)
	if w2.Get() != 0xdf {
		t.Errorf("open-line-0 read = %#x, want 0xdf", w2.Get())
	}
}

func TestRegisterFault(t *testing.T) {
	k := NewKernel()
	r := k.Reg("r", 8, 0)
	k.Comb(func() { r.SetNext(r.Get() + 1) })
	if err := k.Inject(Fault{Node{Name: "r", Bit: 0}, StuckAt0}); err != nil {
		t.Fatal(err)
	}
	k.Cycle() // reads 0 (bit0 stuck 0), schedules 1, commits 1, reads as 0
	if r.Get() != 0 {
		t.Errorf("cycle1 read = %d", r.Get())
	}
	k.Cycle()
	if r.Get()&1 != 0 {
		t.Errorf("stuck bit leaked: %d", r.Get())
	}
}

func TestArrayFault(t *testing.T) {
	k := NewKernel()
	a := k.Array("rf", 32, 8, 0)
	a.Write(3, 0)
	if err := k.Inject(Fault{Node{Name: "rf", Word: 3, Bit: 7}, StuckAt1}); err != nil {
		t.Fatal(err)
	}
	if a.Read(3) != 128 {
		t.Errorf("faulted cell = %d", a.Read(3))
	}
	if a.Read(2) != 0 {
		t.Errorf("clean cell affected")
	}
	a.Write(3, 0xffffff7f)
	if a.Read(3)&128 == 0 {
		t.Errorf("stuck bit overwritten")
	}
	// Second fault on a different word of the same array is rejected.
	if err := k.Inject(Fault{Node{Name: "rf", Word: 5, Bit: 0}, StuckAt1}); err == nil {
		t.Error("expected error for second word fault")
	}
}

func TestInjectErrors(t *testing.T) {
	k := NewKernel()
	k.Wire("w", 4, 0)
	if err := k.Inject(Fault{Node{Name: "nosuch", Bit: 0}, StuckAt1}); err == nil {
		t.Error("unknown node accepted")
	}
	if err := k.Inject(Fault{Node{Name: "w", Bit: 9}, StuckAt1}); err == nil {
		t.Error("out-of-width bit accepted")
	}
}

func TestNodesEnumeration(t *testing.T) {
	k := NewKernel()
	k.Wire("iu.a", 3, 0)
	k.Reg("iu.b", 2, 1)
	k.Array("cmem.t", 4, 2, 2)
	k.Wire("other", 8, 3)
	iu := k.Nodes("iu.")
	if len(iu) != 5 {
		t.Errorf("iu nodes = %d, want 5", len(iu))
	}
	cm := k.Nodes("cmem.")
	if len(cm) != 8 {
		t.Errorf("cmem nodes = %d, want 8", len(cm))
	}
	all := k.Nodes("")
	if len(all) != 5+8+8 {
		t.Errorf("all nodes = %d", len(all))
	}
	// Every enumerated node must be injectable.
	for _, n := range all {
		if err := k.Inject(Fault{n, StuckAt1}); err != nil {
			// Arrays allow only one faulted word; skip that error.
			if n.Name == "cmem.t" {
				continue
			}
			t.Errorf("node %v not injectable: %v", n, err)
		}
		k.ClearFaults()
	}
}

func TestStuckAtDominatesWritesQuick(t *testing.T) {
	k := NewKernel()
	w := k.Wire("w", 32, 0)
	if err := k.Inject(Fault{Node{Name: "w", Bit: 13}, StuckAt1}); err != nil {
		t.Fatal(err)
	}
	f := func(v uint32) bool {
		w.Set(uint64(v))
		got := w.Get()
		return got&(1<<13) != 0 && got&^(1<<13) == uint64(v)&^(1<<13)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnitTagging(t *testing.T) {
	k := NewKernel()
	k.Wire("iu.alu.x", 1, 4)
	if k.UnitOf("iu.alu.x") != 4 {
		t.Error("unit tag lost")
	}
	names := k.SignalNamesByPrefix("iu.")
	if len(names) != 1 || names[0] != "iu.alu.x" {
		t.Errorf("prefix query = %v", names)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	k := NewKernel()
	k.Wire("x", 1, 0)
	k.Wire("x", 2, 0)
}

// TestNodeStringFormat pins Node.String: outcome bytes and content-addressed
// results carry it. Word > 0 selects the bracket form, so word 0 of an array
// prints like a signal bit — a quirk that is part of the format.
func TestNodeStringFormat(t *testing.T) {
	for _, c := range []struct {
		n    Node
		want string
	}{
		{Node{Name: "iu.fe.pc", Bit: 0}, "iu.fe.pc.0"},
		{Node{Name: "iu.md.acc", Bit: 63}, "iu.md.acc.63"},
		{Node{Name: "iu.rf.regs", Word: 0, Bit: 7}, "iu.rf.regs.7"},
		{Node{Name: "iu.rf.regs", Word: 1, Bit: 0}, "iu.rf.regs[1].0"},
		{Node{Name: "cmem.dc.data", Word: 255, Bit: 31}, "cmem.dc.data[255].31"},
		{Node{Name: "x", Word: -1, Bit: -2}, "x.-2"},
		{Node{}, ".0"},
		{Node{Name: strings.Repeat("n", 80), Word: 12, Bit: 3}, strings.Repeat("n", 80) + "[12].3"},
	} {
		if got := c.n.String(); got != c.want {
			t.Errorf("%#v: %q, want %q", c.n, got, c.want)
		}
		if got, want := (Fault{Node: c.n, Model: OpenLine}).String(), "open-line@"+c.want; got != want {
			t.Errorf("fault: %q, want %q", got, want)
		}
	}
	n := Node{Name: "iu.rf.regs", Word: 113, Bit: 31}
	if a := testing.AllocsPerRun(100, func() { _ = n.String() }); a > 1 {
		t.Errorf("Node.String allocates %v objects, want the string alone", a)
	}
}

// TestSoleForcing holds the accessor leon3's wedged proof reads its forcing
// through: the one forced signal with its mask and value, nil on a clean
// design, and a refusal for anything else that is armed.
func TestSoleForcing(t *testing.T) {
	k := NewKernel()
	a, b := k.Reg("a", 8, 0), k.Wire("b", 8, 0)
	k.Array("m", 8, 4, 0)
	sole := func() (*Signal, bool) { return k.SoleForcing() }
	if s, ok := sole(); s != nil || !ok {
		t.Fatalf("clean design: %v, %v", s, ok)
	}
	a.Set(0x10)
	for _, f := range []Fault{
		{Node{Name: "a", Bit: 4}, StuckAt0},
		{Node{Name: "a", Bit: 4}, OpenLine}, // charge 1
		{Node{Name: "b", Bit: 7}, SETPulse}, // complement of 0
	} {
		if err := k.Inject(f); err != nil {
			t.Fatal(err)
		}
		want, wantVal := a, uint64(0)
		if f.Node.Name == "b" {
			want = b
		}
		if f.Model != StuckAt0 {
			wantVal = 1 << f.Node.Bit
		}
		s, ok := sole()
		if s != want || !ok {
			t.Fatalf("%v: sole forcing %v, %v", f, s, ok)
		}
		if mask, val := s.Forcing(); mask != 1<<f.Node.Bit || val != wantVal {
			t.Errorf("%v: forcing mask %#x value %#x", f, mask, val)
		}
		k.ClearFaults()
		if s, ok := sole(); s != nil || !ok {
			t.Fatalf("after ClearFaults: %v, %v", s, ok)
		}
	}
	if err := k.FlipBit(Node{Name: "a", Bit: 0}); err != nil {
		t.Fatal(err)
	}
	if s, ok := sole(); s != nil || !ok {
		t.Errorf("an upset is no forcing: %v, %v", s, ok)
	}
	for name, arm := range map[string]func() error{
		"two faults on one net": func() error {
			return errors.Join(k.Inject(Fault{Node{Name: "a", Bit: 0}, StuckAt1}), k.Inject(Fault{Node{Name: "a", Bit: 1}, StuckAt1}))
		},
		"two nets": func() error {
			return errors.Join(k.Inject(Fault{Node{Name: "a", Bit: 0}, StuckAt1}), k.Inject(Fault{Node{Name: "b", Bit: 0}, StuckAt1}))
		},
		"array word": func() error { return k.Inject(Fault{Node{Name: "m", Word: 2, Bit: 3}, StuckAt1}) },
	} {
		if err := arm(); err != nil {
			t.Fatal(err)
		}
		if _, ok := sole(); ok {
			t.Errorf("%s: accepted as a sole forcing", name)
		}
		k.ClearFaults()
	}
}
