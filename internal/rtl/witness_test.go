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

// buildEdgeDesign is a toy design of four registers — 8, 32, 62 and 64 bits
// wide — whose single process does to each, per cycle, what the test picks
// through op, a statement per letter in order: 'g' samples it, 'h' holds it,
// 'G' holds it through a group, 'n' schedules its value plus one, 's'
// schedules the value it already holds, 'S' drives the committed word
// directly. The 32-bit one is in the group; sink keeps the samples alive.
func buildEdgeDesign(op *string) (k *Kernel, regs [4]*Signal) {
	k = NewKernel()
	for i, w := range []int{8, 32, 62, 64} {
		regs[i] = k.Reg([]string{"r8", "r32", "r62", "r64"}[i], w, 0)
	}
	sink := k.Reg("sink", 64, 0)
	group := k.Group(regs[1])
	k.Comb(func() {
		for _, r := range regs {
			for _, c := range *op {
				switch c {
				case 'g':
					sink.SetNext(r.Get())
				case 'h':
					r.Hold()
				case 'G':
					group.Hold()
				case 'n':
					r.SetNext(r.Get() + 1)
				case 's':
					r.SetNext(r.Next())
				case 'S':
					r.Set(0x2a)
				}
			}
		}
	})
	return k, regs
}

// TestWitnessRegisterEdges pins the register write side: with its clock
// edges watched, a register's accumulator says what each edge did with the
// word committed before it — carried by a raw copy (nothing recorded),
// replaced unread (WriteFirst), or dropped for a pending slot nothing
// scheduled (Untouched) — whatever the kernel call and whatever came before
// it in the cycle; no tag is ever seen through Get, Next or Sample; a fault
// on the tagged register composes and clears; a 64-bit register has no room
// for tags, and its top bits force and clear like any others; and after
// Stop both slabs equal, bit for bit, those of a run nobody witnessed.
func TestWitnessRegisterEdges(t *testing.T) {
	var op, plainOp string
	k, regs := buildEdgeDesign(&op)
	plain, plainRegs := buildEdgeDesign(&plainOp)
	nets := []WitnessNet{{Name: "r8"}, {Name: "r32"}, {Name: "r62"}, {Name: "r64"}}
	w, err := k.StartWitness(nets)
	if err != nil {
		t.Fatal(err)
	}
	for i := range 3 {
		if err := w.WatchEdges(i); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.WatchEdges(3); err == nil {
		t.Fatal("a 64-bit register has no room for edge tags, WatchEdges took it")
	}
	if k.EdgesWatchable(Node{Name: "r64"}) || !k.EdgesWatchable(Node{Name: "r62"}) || k.EdgesWatchable(Node{Name: "nosuch"}) {
		t.Fatal("EdgesWatchable: want registers of at most 62 bits")
	}
	read := func(a WitnessAcc) bool { return a.Ones|a.Zeros != 0 }
	for _, tc := range []struct {
		ops                         string
		writeFirst, untouched, read bool
	}{
		{"n", false, false, true}, // sampled, then replaced: the read stands
		{"h", false, false, false},
		{"G", false, false, false},
		{"Gn", false, false, true}, // the last writer wins
		{"hs", true, false, false}, // replaced by the value it held: replaced all the same
		{"nh", false, false, true},
		{"", false, true, false},
		{"g", false, true, true},
		{"", false, true, false},   // two untouched edges in a row
		{"S", false, true, false},  // the committed word driven, the pending slot left alone
		{"Sh", true, false, false}, // ... or copied: the word committed before is gone unread
		{"s", true, false, false},
	} {
		op, plainOp = tc.ops, tc.ops
		k.Cycle()
		plain.Cycle()
		acc := drained(w, 4)
		for i, r := range regs {
			want := WitnessAcc{WriteFirst: tc.writeFirst, Untouched: tc.untouched}
			switch {
			case i == 3:
				want = WitnessAcc{} // unwatched edges: reads alone
			case i != 1 && tc.ops == "G":
				want = WitnessAcc{Untouched: true} // the group holds r32 alone
			}
			got := acc[i]
			if got.WriteFirst != want.WriteFirst || got.Untouched != want.Untouched || read(got) != tc.read {
				t.Errorf("%q on %s: %+v, want WriteFirst %v, Untouched %v, read %v", tc.ops, r.Name(), got, want.WriteFirst, want.Untouched, tc.read)
			}
			if g, p := r.Get(), plainRegs[i].Get(); g != p || r.Next() != plainRegs[i].Next() || w.Sample(i) != p {
				t.Fatalf("%q on %s: Get %#x, Next %#x, Sample %#x; unwitnessed %#x, %#x", tc.ops, r.Name(), g, r.Next(), w.Sample(i), p, plainRegs[i].Next())
			}
		}
		w.Drain(nil) // the checks' own reads
	}

	// A fault on a tagged register, and on the top bits of the 64-bit one.
	for _, f := range []Fault{{Node{Name: "r62", Bit: 61}, StuckAt1}, {Node{Name: "r64", Bit: 63}, StuckAt1}, {Node{Name: "r64", Bit: 62}, StuckAt1}} {
		if err := k.Inject(f); err != nil {
			t.Fatal(err)
		}
	}
	if m, v := regs[2].Forcing(); m != 1<<61 || v != 1<<61 {
		t.Errorf("forcing on the tagged r62: mask %#x value %#x", m, v)
	}
	if m, _ := regs[3].Forcing(); m != 3<<62 {
		t.Errorf("forcing on r64's top bits: mask %#x", m)
	}
	if regs[2].Get()>>61 != 1 || regs[3].Get()>>62 != 3 {
		t.Errorf("forced reads: r62 %#x, r64 %#x", regs[2].Get(), regs[3].Get())
	}
	k.ClearFaults()
	if len(k.Faults()) != 0 || regs[2].Get() != plainRegs[2].Get() || regs[3].Get() != plainRegs[3].Get() {
		t.Errorf("after ClearFaults: r62 %#x, r64 %#x; unwitnessed %#x, %#x", regs[2].Get(), regs[3].Get(), plainRegs[2].Get(), plainRegs[3].Get())
	}
	op, plainOp = "h", "h"
	k.Cycle()
	plain.Cycle()
	if acc := drained(w, 4); acc[2].WriteFirst || acc[2].Untouched {
		t.Errorf("r62 held after ClearFaults: %+v — the tags must outlive a fault on their register", acc[2])
	}

	w.Stop()
	if !k.StateEquals(plain.Snapshot()) {
		t.Error("committed state after Stop differs from the unwitnessed run's")
	}
	for i, r := range regs {
		if r.slow != 0 || r.fMask != 0 || *r.curp != *plainRegs[i].curp || *r.nxtp != *plainRegs[i].nxtp {
			t.Errorf("%s after Stop: slow %d, mask %#x, slabs %#x/%#x; unwitnessed %#x/%#x",
				r.Name(), r.slow, r.fMask, *r.curp, *r.nxtp, *plainRegs[i].curp, *plainRegs[i].nxtp)
		}
	}
}

// TestWitnessesShareAnArray: two witnesses over different words of one array
// share its observer list, and stopping either leaves the other armed; the
// list goes with the last.
func TestWitnessesShareAnArray(t *testing.T) {
	for _, order := range [][2]int{{0, 1}, {1, 0}} {
		k := NewKernel()
		rf := k.Array("iu.rf.regs", 32, 8, 0)
		sink := k.Reg("sink", 32, 0)
		k.Comb(func() { sink.SetNext(rf.Read(3) + rf.Read(5)) })
		var ws [2]*Witness
		for i, word := range []int{3, 5} {
			w, err := k.StartWitness([]WitnessNet{{Name: "iu.rf.regs", Word: word}})
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		if _, err := k.StartWitness([]WitnessNet{{Name: "iu.rf.regs", Word: 5}}); err == nil {
			t.Fatal("a word witnessed twice")
		}
		k.Cycle()
		if len(ws[0].Drain(nil)) != 1 || len(ws[1].Drain(nil)) != 1 {
			t.Fatal("both witnesses armed, one saw nothing")
		}
		ws[order[0]].Stop()
		k.Cycle()
		if n := len(ws[order[1]].Drain(nil)); n != 1 {
			t.Errorf("stopping the witness on word %d disarmed the one on word %d: %d events", 3+2*order[0], 3+2*order[1], n)
		}
		if n := len(ws[order[0]].Drain(nil)); n != 0 {
			t.Errorf("the stopped witness still records: %d events", n)
		}
		if rf.obs == nil {
			t.Error("the observer list went with the first witness")
		}
		ws[order[1]].Stop()
		if rf.obs != nil {
			t.Error("the observer list outlives its last witness")
		}
		// The word is free again.
		w, err := k.StartWitness([]WitnessNet{{Name: "iu.rf.regs", Word: 3 + 2*order[0]}})
		if err != nil {
			t.Fatal(err)
		}
		w.Stop()
	}
}
