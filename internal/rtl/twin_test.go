package rtl

import "testing"

// TestTwinSelection: the kernel runs the probed processes on every cycle
// where a fault (on a signal or an array word) or a witness is armed, and
// the clean twins on every other cycle; a process registered with Comb
// runs on both.
func TestTwinSelection(t *testing.T) {
	k := NewKernel()
	k.Reg("s", 8, 0)
	k.Array("a", 8, 4, 0)
	var ran string
	plain, cycles := 0, 0
	k.Twin(func() { ran = "clean" }, func() { ran = "probed" })
	k.Comb(func() { plain++ })
	step := func(what, want string) {
		t.Helper()
		ran = ""
		k.Cycle()
		cycles++
		if ran != want {
			t.Errorf("%s: ran %q, want %q", what, ran, want)
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	witness := func(nets ...WitnessNet) *Witness {
		t.Helper()
		w, err := k.StartWitness(nets)
		must(err)
		return w
	}

	step("nothing armed", "clean")
	for _, f := range []Fault{
		{Node{Name: "s", Bit: 1}, StuckAt1},
		{Node{Name: "s", Bit: 2}, OpenLine},
		{Node{Name: "s", Bit: 3}, SETPulse},
		{Node{Name: "a", Word: 2, Bit: 0}, StuckAt0},
		{Node{Name: "a", Word: 3, Bit: 7}, SETPulse},
	} {
		must(k.Inject(f))
		step(f.String(), "probed")
		step(f.String()+", a cycle on", "probed")
		k.ClearFaults()
		step(f.String()+" cleared", "clean")
	}
	must(k.InjectForced(Fault{Node{Name: "a", Word: 1, Bit: 4}, OpenLine}, 0))
	step("forced open line", "probed")
	k.ResetState()
	step("reset", "clean")
	must(k.Inject(Fault{Node{Name: "s", Bit: 0}, BitFlip}))
	step("bit-flip (arms nothing)", "clean")
	must(k.FlipCarried(Node{Name: "a", Word: 1, Bit: 0}))
	step("carried flip", "clean")

	// Witnesses: on a signal, on an array word, two at once, and one with
	// a fault under it. Each Stop gives back its own count once.
	ws := witness(WitnessNet{Name: "s"})
	step("signal witnessed", "probed")
	wa := witness(WitnessNet{Name: "a", Word: 1})
	step("two witnesses", "probed")
	ws.Stop()
	step("array word still witnessed", "probed")
	ws.Stop()
	step("a stopped witness stopped again", "probed")
	if _, err := k.StartWitness([]WitnessNet{{Name: "a", Word: 1}}); err == nil {
		t.Fatal("witnessing a witnessed word succeeded")
	}
	wa.Stop()
	step("every witness stopped", "clean")
	if _, err := k.StartWitness([]WitnessNet{{Name: "s"}, {Name: "s"}}); err == nil {
		t.Fatal("a repeated net was armed")
	}
	step("a witness that failed to start", "clean")
	wa = witness(WitnessNet{Name: "a", Word: 0}, WitnessNet{Name: "s"})
	must(k.Inject(Fault{Node{Name: "a", Word: 0, Bit: 1}, StuckAt1}))
	step("witness and fault", "probed")
	k.ClearFaults()
	step("witness, fault cleared", "probed")
	must(wa.WatchEdges(1))
	step("edges watched", "probed")
	wa.Drain(nil)
	wa.Stop()
	step("all stopped", "clean")

	if plain != cycles {
		t.Errorf("the single-build process ran %d of %d cycles", plain, cycles)
	}
}

// TestRawReadsAreUnprobed: Raw, RawBool and ReadRaw return the slab words,
// whatever is forced or witnessed, and record nothing.
func TestRawReadsAreUnprobed(t *testing.T) {
	k := NewKernel()
	s := k.Reg("s", 8, 0)
	a := k.Array("a", 8, 4, 0)
	s.Set(0x5a)
	a.Write(2, 0x0f)
	w, err := k.StartWitness([]WitnessNet{{Name: "s"}, {Name: "a", Word: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	if err := k.Inject(Fault{Node{Name: "s", Bit: 0}, StuckAt1}); err != nil {
		t.Fatal(err)
	}
	if err := k.Inject(Fault{Node{Name: "a", Word: 2, Bit: 7}, StuckAt1}); err != nil {
		t.Fatal(err)
	}
	if s.Raw() != 0x5a || s.RawBool() != true || a.ReadRaw(2) != 0x0f {
		t.Fatalf("raw reads %#x %v %#x, want the slab's 0x5a true 0xf", s.Raw(), s.RawBool(), a.ReadRaw(2))
	}
	if evs := w.Drain(nil); len(evs) != 0 {
		t.Fatalf("raw reads recorded %v", evs)
	}
	if s.Get() != 0x5b || a.Read(2) != 0x8f {
		t.Fatalf("probed reads %#x %#x, want the forced 0x5b 0x8f", s.Get(), a.Read(2))
	}
}
