package rtl

import "testing"

func TestFlipBitOnWireAndRegister(t *testing.T) {
	k := NewKernel()
	w := k.Wire("w", 8, 0)
	w.Set(0b1010)
	if err := k.FlipBit(Node{Name: "w", Bit: 1}); err != nil {
		t.Fatal(err)
	}
	if w.Get() != 0b1000 {
		t.Errorf("after flip = %#b", w.Get())
	}
	// A register flip survives Hold (quasi-static state keeps the upset).
	r := k.Reg("r", 8, 0)
	load := true
	k.Comb(func() {
		if load {
			r.SetNext(0x55)
		} else {
			r.Hold()
		}
	})
	k.Cycle() // r = 0x55
	load = false
	if err := k.FlipBit(Node{Name: "r", Bit: 0}); err != nil {
		t.Fatal(err)
	}
	k.Cycle()
	if r.Get() != 0x54 {
		t.Errorf("flip did not persist through hold: %#x", r.Get())
	}
}

func TestFlipBitOnArray(t *testing.T) {
	k := NewKernel()
	a := k.Array("m", 16, 4, 0)
	a.Write(2, 0xff)
	if err := k.FlipBit(Node{Name: "m", Word: 2, Bit: 4}); err != nil {
		t.Fatal(err)
	}
	if a.Read(2) != 0xef {
		t.Errorf("array flip = %#x", a.Read(2))
	}
	// Rewriting heals the upset (unlike a stuck-at).
	a.Write(2, 0xff)
	if a.Read(2) != 0xff {
		t.Errorf("flip behaved like a permanent fault")
	}
}

func TestFlipBitErrors(t *testing.T) {
	k := NewKernel()
	k.Wire("w", 4, 0)
	if err := k.FlipBit(Node{Name: "nosuch", Bit: 0}); err == nil {
		t.Error("unknown node accepted")
	}
	if err := k.FlipBit(Node{Name: "w", Bit: 7}); err == nil {
		t.Error("out-of-range bit accepted")
	}
}
