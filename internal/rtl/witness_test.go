package rtl

import "testing"

// buildWitnessDesign is a small design with a conditionally-consumed
// register: the process reads src every cycle, but reads gated only on
// cycles where sel's low bit is set, and reads one word of a 4-word
// array when sel's bit 1 is set.
func buildWitnessDesign() (*Kernel, *Signal, *Signal, *Signal, *MemArray) {
	k := NewKernel()
	src := k.Reg("src", 32, 0)
	gated := k.Reg("gated", 32, 0)
	sel := k.Reg("sel", 8, 0)
	arr := k.Array("arr", 32, 4, 0)
	out := k.Reg("out", 32, 0)
	k.Comb(func() {
		v := src.Get()
		if sel.Get()&1 != 0 {
			v += gated.Get()
		}
		if sel.Get()&2 != 0 {
			v += arr.Read(2)
		}
		out.SetNext(v)
		src.SetNext(src.Get() + 1)
		sel.SetNext(sel.Get() + 1)
	})
	return k, src, gated, sel, arr
}

// drained returns what each of a witness's n nets recorded since the last
// drain, indexed like the nets it was started on.
func drained(w *Witness, n int) []WitnessAcc {
	acc := make([]WitnessAcc, n)
	for _, e := range w.Drain(nil) {
		acc[e.Net] = e.Acc
	}
	return acc
}

func TestWitnessRecordsOnlyConsumedReads(t *testing.T) {
	k, _, gated, _, arr := buildWitnessDesign()
	gated.SetNext(0x5)
	arr.Write(2, 0xf0)
	k.Cycle() // commit the seeds; sel=1 after this edge

	w, err := k.StartWitness([]WitnessNet{{Name: "gated"}, {Name: "arr", Word: 2}, {Name: "arr", Word: 3}})
	if err != nil {
		t.Fatal(err)
	}

	// sel=1: gated read, arr not.
	k.Cycle()
	acc := drained(w, 3)
	if acc[0].Ones != 0x5 || acc[0].Zeros&0xffffffff != ^uint64(0x5)&0xffffffff {
		t.Fatalf("gated acc after consumed read: %+v", acc[0])
	}
	if acc[1] != (WitnessAcc{}) || acc[2] != (WitnessAcc{}) {
		t.Fatalf("array words observed without being read: %+v %+v", acc[1], acc[2])
	}

	// sel=2: arr[2] read, gated not.
	k.Cycle()
	acc = drained(w, 3)
	if acc[0] != (WitnessAcc{}) {
		t.Fatalf("gated observed on a non-consuming cycle: %+v", acc[0])
	}
	if acc[1].Ones != 0xf0 {
		t.Fatalf("arr[2] acc: %+v", acc[1])
	}
	if acc[2] != (WitnessAcc{}) {
		t.Fatalf("unread word arr[3] observed: %+v", acc[2])
	}

	// Sample returns raw values without recording.
	if got := w.Sample(1); got != 0xf0 {
		t.Fatalf("Sample(arr[2]) = %#x", got)
	}
	if got := w.Sample(0); got != 0x5 {
		t.Fatalf("Sample(gated) = %#x", got)
	}
	if evs := w.Drain(nil); len(evs) != 0 {
		t.Fatalf("Sample recorded an observation: %+v", evs)
	}

	w.Stop()
	k.Cycle() // sel=3: both consumed, but witness is stopped
	if evs := w.Drain(nil); len(evs) != 0 {
		t.Fatalf("observation after Stop: %+v", evs)
	}
	for _, s := range k.Signals() {
		if s.slow != 0 {
			t.Fatalf("signal %s still on slow path after Stop", s.Name())
		}
	}
}

// TestWitnessDrainVisitsTouchedNets pins the drain: it yields one event per
// net touched since the last drain — however often the net was read — and
// nothing for the others, resets what it yields, and a net touched again
// after a drain is yielded again.
func TestWitnessDrainVisitsTouchedNets(t *testing.T) {
	k, _, gated, _, arr := buildWitnessDesign()
	gated.SetNext(0x5)
	arr.Write(2, 0xf0)
	k.Cycle() // sel=1 after this edge
	w, err := k.StartWitness([]WitnessNet{{Name: "arr", Word: 3}, {Name: "sel"}, {Name: "gated"}, {Name: "arr", Word: 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	for cycle, want := range [][]int32{{1, 2}, {1, 3}, {1, 2, 3}, {1}} { // sel=1, 2, 3, 4
		k.Cycle() // sel is read three times a cycle
		evs := w.Drain(nil)
		got := map[int32]bool{}
		for _, e := range evs {
			if got[e.Net] || e.Acc == (WitnessAcc{}) {
				t.Fatalf("cycle %d: net %d drained twice or empty: %+v", cycle, e.Net, evs)
			}
			got[e.Net] = true
		}
		if len(evs) != len(want) {
			t.Fatalf("cycle %d: drained %+v, want nets %v", cycle, evs, want)
		}
		for _, n := range want {
			if !got[n] {
				t.Fatalf("cycle %d: drained %+v, want nets %v", cycle, evs, want)
			}
		}
		if again := w.Drain(nil); len(again) != 0 {
			t.Fatalf("cycle %d: a second drain yielded %+v", cycle, again)
		}
	}
}

func TestWitnessComposesWithForcing(t *testing.T) {
	k, _, gated, _, _ := buildWitnessDesign()
	gated.SetNext(0xff)
	k.Cycle()
	w, err := k.StartWitness([]WitnessNet{{Name: "gated"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.Inject(Fault{Node: Node{Name: "gated", Bit: 0}, Model: StuckAt0}); err != nil {
		t.Fatal(err)
	}
	k.Cycle() // sel=1: gated consumed; witness sees the forced value
	if got := drained(w, 1)[0].Ones; got != 0xfe {
		t.Fatalf("witness recorded %#x, want forced 0xfe", got)
	}
	k.ClearFaults()
	w.Stop()
}

func TestWitnessErrors(t *testing.T) {
	k, _, _, _, _ := buildWitnessDesign()
	cases := [][]WitnessNet{
		{{Name: "nosuch"}},
		{{Name: "gated", Word: 1}},
		{{Name: "arr", Word: 4}},
		{{Name: "arr", Word: -1}},
		{{Name: "gated"}, {Name: "gated"}},
	}
	for _, nets := range cases {
		if _, err := k.StartWitness(nets); err == nil {
			t.Errorf("StartWitness(%v) succeeded", nets)
		}
	}
	// A failed arm must leave the kernel clean.
	for _, s := range k.Signals() {
		if s.slow != 0 {
			t.Fatalf("signal %s armed after failed StartWitness", s.Name())
		}
	}
	w, err := k.StartWitness([]WitnessNet{{Name: "gated"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.StartWitness([]WitnessNet{{Name: "gated"}}); err == nil {
		t.Error("double witness on one net succeeded")
	}
	w.Stop()
	if _, err := k.StartWitness([]WitnessNet{{Name: "gated"}}); err != nil {
		t.Errorf("re-arm after Stop: %v", err)
	}
}

// TestInjectForcedMatchesInject checks that InjectForced with the net's
// present raw value arms exactly what Inject arms, for every forcing
// model, and that a different sampled value shifts only the
// charge-sampling models.
func TestInjectForcedMatchesInject(t *testing.T) {
	for _, m := range []FaultModel{StuckAt0, StuckAt1, OpenLine, SETPulse} {
		ka, _, gateda, _, _ := buildWitnessDesign()
		kb, _, gatedb, _, _ := buildWitnessDesign()
		gateda.SetNext(0xa5)
		gatedb.SetNext(0xa5)
		ka.Cycle()
		kb.Cycle()
		f := Fault{Node: Node{Name: "gated", Bit: 0}, Model: m}
		if err := ka.Inject(f); err != nil {
			t.Fatal(err)
		}
		if err := kb.InjectForced(f, 0xa5); err != nil {
			t.Fatal(err)
		}
		ga, gb := ka.findSignal("gated"), kb.findSignal("gated")
		if ga.Get() != gb.Get() {
			t.Errorf("%v: Inject reads %#x, InjectForced(raw) reads %#x", m, ga.Get(), gb.Get())
		}
	}

	// OpenLine frozen from a *different* instant's sample: forced bit is
	// the sampled one, not the present one.
	k, _, gated, _, _ := buildWitnessDesign()
	gated.SetNext(0x1) // present value has bit 0 set
	k.Cycle()
	f := Fault{Node: Node{Name: "gated", Bit: 0}, Model: OpenLine}
	if err := k.InjectForced(f, 0x0); err != nil { // sampled at an instant where the bit was 0
		t.Fatal(err)
	}
	if got := k.findSignal("gated").Get(); got&1 != 0 {
		t.Errorf("open-line frozen value ignored the sample: read %#x", got)
	}

	if err := k.InjectForced(Fault{Node: Node{Name: "gated", Bit: 1}, Model: BitFlip}, 0); err == nil {
		t.Error("InjectForced(BitFlip) succeeded")
	}
}

func TestNodeValid(t *testing.T) {
	k, _, _, _, _ := buildWitnessDesign()
	valid := []Node{
		{Name: "gated", Bit: 0},
		{Name: "gated", Bit: 31},
		{Name: "arr", Word: 3, Bit: 31},
	}
	invalid := []Node{
		{Name: "nosuch", Bit: 0},
		{Name: "gated", Bit: 32},
		{Name: "gated", Word: 1, Bit: 0},
		{Name: "arr", Word: 4, Bit: 0},
		{Name: "arr", Word: 0, Bit: 32},
		{Name: "arr", Word: -1, Bit: 0},
	}
	for _, n := range valid {
		if !k.NodeValid(n) {
			t.Errorf("NodeValid(%v) = false", n)
		}
	}
	for _, n := range invalid {
		if k.NodeValid(n) {
			t.Errorf("NodeValid(%v) = true", n)
		}
	}
}

func TestStateEquals(t *testing.T) {
	k, _, _, _, _ := buildWitnessDesign()
	k.Cycle()
	k.Cycle()
	snap := k.Snapshot()
	if !k.StateEquals(snap) {
		t.Fatal("kernel differs from its own snapshot")
	}
	k.Cycle()
	if k.StateEquals(snap) {
		t.Fatal("advanced kernel still equals old snapshot")
	}
	if err := k.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !k.StateEquals(snap) {
		t.Fatal("restored kernel differs from snapshot")
	}
	// Array-state differences are seen too.
	k.Arrays()[0].Write(1, 0xdead)
	if k.StateEquals(snap) {
		t.Fatal("array divergence missed")
	}
}

// buildWriteWitnessDesign is a toy design whose single process touches
// word 1 of a 4-word array in an order the test picks per cycle through
// op: array writes are immediate, so the order of a word's write and its
// reads inside one cycle is exactly the process's statement order.
func buildWriteWitnessDesign(op *string) (*Kernel, *MemArray) {
	k := NewKernel()
	arr := k.Array("arr", 32, 4, 0)
	sink := k.Reg("sink", 32, 0)
	k.Comb(func() {
		for _, c := range *op {
			switch c {
			case 'w':
				arr.Write(1, k.Now()+0x10)
			case 'r':
				sink.SetNext(arr.Read(1))
			case 'o': // another word: must never disturb word 1's accumulator
				arr.Write(2, arr.Read(3)+1)
			}
		}
	})
	return k, arr
}

// TestWitnessWriteFirst pins the write side of the witness: WriteFirst
// says the word was overwritten before anything read it since the last
// drain, which is what lets the campaign engine declare a state upset in
// that word dead.
func TestWitnessWriteFirst(t *testing.T) {
	var op string
	k, arr := buildWriteWitnessDesign(&op)
	w, err := k.StartWitness([]WitnessNet{{Name: "arr", Word: 1}})
	if err != nil {
		t.Fatal(err)
	}
	cycle := func(ops string) WitnessAcc {
		t.Helper()
		op = ops
		k.Cycle()
		return drained(w, 1)[0]
	}

	if got := cycle("wr"); !got.WriteFirst || got.Ones == 0 {
		t.Errorf("write then read in one cycle: %+v, want WriteFirst and the read recorded", got)
	}
	if got := cycle("rw"); got.WriteFirst || got.Ones == 0 {
		t.Errorf("read then write in one cycle: %+v, want the read alone", got)
	}
	if got := cycle("w"); !got.WriteFirst || got.Ones|got.Zeros != 0 {
		t.Errorf("write alone: %+v", got)
	}
	if got := cycle("o"); got != (WitnessAcc{}) {
		t.Errorf("accesses to unwitnessed words reached word 1's accumulator: %+v", got)
	}
	if got := cycle(""); got != (WitnessAcc{}) {
		t.Errorf("idle cycle after a drain: %+v — the flag must clear with the accumulator", got)
	}
	// A read in an earlier, undrained cycle still counts as "read first".
	op = "r"
	k.Cycle()
	op = "w"
	k.Cycle()
	if got := drained(w, 1)[0]; got.WriteFirst {
		t.Errorf("write after an undrained read marked WriteFirst: %+v", got)
	}

	w.Stop()
	if got := cycle("wr"); got != (WitnessAcc{}) {
		t.Errorf("observation after Stop: %+v", got)
	}
	if arr.obs != nil {
		t.Error("array still carries observers after Stop: the unwitnessed Write path must be one nil check")
	}
	if got := arr.Read(1); got != k.Now()-1+0x10 {
		t.Errorf("arr[1] = %#x after the witnessed writes, want the last written value", got)
	}
}

func TestIsArrayWord(t *testing.T) {
	k, _, _, _, _ := buildWitnessDesign()
	if !k.IsArrayWord(Node{Name: "arr", Word: 2, Bit: 1}) {
		t.Error("arr not reported as an array")
	}
	for _, n := range []Node{{Name: "gated"}, {Name: "nosuch"}} {
		if k.IsArrayWord(n) {
			t.Errorf("IsArrayWord(%v) = true", n)
		}
	}
}
