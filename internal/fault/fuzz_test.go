package fault

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/mem"
	"repro/internal/rtl"
)

// FuzzLaneEquivalence is the engine oracle on generated programs: for a
// constrained-random terminating SPARC program, any injectable node of
// either target, any fault model and any instant, the production engine —
// ladder from the fixed instant, lanes over the read log, upsets among
// them, universes parked on the logs of the words they differ in and
// teleported — must return what the from-reset scalar reference returns,
// byte for byte, by every path checkEngine walks (one campaign of seven,
// RunOne, single-lane campaigns). The fuzzed experiment shares its
// campaign with a second upset on the same net, a SET pulse one cycle later
// and both stuck-ats with the open line that is the twin of one of them,
// so probes of every kind meet on one net's log and one forcing is
// resolved once for two lanes; an upset of a fetch-PC bit at the same
// instant is the flip most likely to heal a refetch late. The lot
// runs once more behind 64 filler lanes on the same net (glitches
// scheduled past program exit: never armed, free), so that its lanes are
// not the campaign's first. Before either, the runner's read log is given
// the register file and the IU registers (logAround), as earlier campaigns
// would leave it. Every input runs twice on its runner: the
// first round walks the nets into the runner's read log and resolves the
// forcings into its verdict table, the second is answered from both and
// from the runner's known futures. Then it runs again with every transient
// a cycle earlier, whose universes meet the first ones' parked states at
// instants of their own: a future kept under the wrong key, or its latency
// taken relative to the wrong instant, is a finding. A
// second campaign then overlaps the first on the same runner — the node's own
// forcings again, beside those of its sibling bit and of a neighbouring node
// the table has not seen — and is held to the reference too: a verdict kept
// stale, or keyed short of its bit, polarity or word, is a finding. The
// runners' fixed instant is reset or a mid-run fraction, so the permanent
// lanes' log-start answer (netLog.first) is held to the reference both where
// the log starts at reset and where it starts mid-run.
//
// Smoke: make fuzz-smoke; longer:
// go test -run '^$' -fuzz FuzzLaneEquivalence -fuzztime 5m ./internal/fault/
func FuzzLaneEquivalence(f *testing.F) {
	// Program seed, node index (IU enumeration, then CMEM), model, instant
	// (modulo the golden run's length + 64, so some land past program exit),
	// fixed instant (fixed%4 quarters of the golden run: 0 is reset).
	f.Add(int64(1), uint32(2500), uint8(rtl.BitFlip), uint32(700), uint8(0)) // iu.rf.regs[31].13
	f.Add(int64(2), uint32(7000), uint8(rtl.BitFlip), uint32(0), uint8(0))   // cmem.ic.tags[47].4, at reset
	f.Add(int64(3), uint32(40), uint8(rtl.BitFlip), uint32(1200), uint8(0))  // iu.de.pc.7: a register upset, a lane through its clock edges
	f.Add(int64(4), uint32(3000), uint8(rtl.SETPulse), uint32(90000), uint8(0))
	f.Add(int64(5), uint32(9000), uint8(rtl.OpenLine), uint32(15), uint8(0)) // cmem.ic.data[50].13
	f.Add(int64(1), uint32(2222), uint8(rtl.StuckAt0), uint32(1<<31), uint8(0))
	// One net of the PC chain per model: the dead-EX-gate hangs resolve
	// proves wedged (RAM addresses have bit 30 set and bit 31 clear).
	f.Add(int64(6), uint32(31), uint8(rtl.StuckAt1), uint32(0), uint8(0))        // iu.fe.pc.31
	f.Add(int64(7), uint32(33+30), uint8(rtl.StuckAt0), uint32(300), uint8(0))   // iu.de.pc.30
	f.Add(int64(8), uint32(190+30), uint8(rtl.OpenLine), uint32(500), uint8(0))  // iu.ra.pc.30, open at its reset charge
	f.Add(int64(9), uint32(443+12), uint8(rtl.BitFlip), uint32(400), uint8(0))   // iu.ex.pc.12
	f.Add(int64(10), uint32(918+20), uint8(rtl.SETPulse), uint32(350), uint8(0)) // iu.ctl.exppc.20: the fetch is sent away, the target taken back
	// Upsets that ride their net's log past the injection instant.
	f.Add(int64(2), uint32(1009), uint8(rtl.BitFlip), uint32(600), uint8(0)) // iu.psr.tbr.9: carried to program exit unread, parked from its instant on
	f.Add(int64(1), uint32(4348), uint8(rtl.BitFlip), uint32(61), uint8(0))  // iu.rf.regs[89].5: read under a don't-care, parked, then overwritten
	f.Add(int64(1), uint32(993), uint8(rtl.BitFlip), uint32(20), uint8(0))   // iu.psr.wim.1: parked and teleported eight times, then never read again
	f.Add(int64(3), uint32(34), uint8(rtl.BitFlip), uint32(307), uint8(0))   // iu.de.pc.1 on a bubble: the first edge takes the pending word
	f.Add(int64(1), uint32(7045), uint8(rtl.BitFlip), uint32(20), uint8(0))  // cmem.ic.tags[49].3: re-parked between its set's lookups, other lines refilled meanwhile
	// Universes parked on the logs of words other than their seed's, or of
	// several words at once (logAround publishes them).
	f.Add(int64(11), uint32(21811), uint8(rtl.BitFlip), uint32(293), uint8(0))  // cmem.dc.data[148].24: loaded into iu.rf.regs[128], parked there alone, replaced unread
	f.Add(int64(11), uint32(4454), uint8(rtl.BitFlip), uint32(465), uint8(0))   // iu.rf.regs[92].15 copied into iu.rf.regs[112]: a two-word park teleported three times, then for good
	f.Add(int64(6), uint32(1442), uint8(rtl.SETPulse), uint32(1517), uint8(3))  // iu.wb.wbval.20 written to two words, one replaced before the other's read: XORed back alone
	f.Add(int64(7), uint32(8379), uint8(rtl.BitFlip), uint32(551), uint8(1))    // cmem.ic.data[31].0: a wrong instruction leaves four words, two replaced unread before the teleport
	f.Add(int64(7), uint32(10466), uint8(rtl.SETPulse), uint32(1188), uint8(1)) // the sibling's upset leaves three words; XOR iu.rf.regs[133], replaced before the teleport, and a mismatch follows
	f.Add(int64(9), uint32(11709), uint8(rtl.BitFlip), uint32(618), uint8(0))   // cmem.ic.data[135].2: a wrong divide leaves iu.md.quot, logged without its edges: never parked there
	f.Add(int64(4), uint32(166), uint8(rtl.BitFlip), uint32(1154), uint8(1))    // iu.de.disp.14: the pulse moves on to iu.ex.disp, logged without its edges
	// Forks from a fork point: between two rungs, and past the last rung.
	f.Add(int64(1), uint32(2500), uint8(rtl.BitFlip), uint32(710), uint8(0))     // iu.rf.regs[31].13: the point at 708, two cycles replayed
	f.Add(int64(3), uint32(40), uint8(rtl.BitFlip), uint32(1213), uint8(1))      // iu.de.pc.7 a quarter in: rungs from 406, the point at 1,210
	f.Add(int64(6), uint32(4454), uint8(rtl.BitFlip), uint32(1770), uint8(0))    // iu.rf.regs[92].15 past the last rung (1,760): the point at 1,768
	f.Add(int64(10), uint32(21811), uint8(rtl.SETPulse), uint32(1645), uint8(0)) // cmem.dc.data[148].24 past the last rung (1,632): the point at 1,644
	// Permanent lanes asked from a log that starts mid-run.
	f.Add(int64(2), uint32(2222), uint8(rtl.StuckAt1), uint32(900), uint8(2)) // a register-file word stuck from half-way
	f.Add(int64(5), uint32(9000), uint8(rtl.OpenLine), uint32(15), uint8(1))  // cmem.ic.data[50].13, open from a quarter in
	f.Fuzz(func(t *testing.T, seed int64, node uint32, model uint8, instant uint32, fixed uint8) {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		// Skips a program that ends in a trap.
		lanes, ref := enginePair(t, p, Options{PulseCycles: 2, InjectAtFraction: float64(fixed%4) / 4})
		logAround(lanes)
		iu, cmem := Nodes(TargetIU), Nodes(TargetCMEM)
		var n NodeInfo
		if i := int(node) % (len(iu) + len(cmem)); i < len(iu) {
			n = iu[i]
		} else {
			n = cmem[i-len(iu)]
		}
		models := rtl.AllFaultModels()
		at := uint64(instant) % (lanes.GoldenCycles + 64)
		sibling := NodeInfo{Node: n.Node, Unit: n.Unit}
		sibling.Node.Bit = 0
		if n.Node.Bit == 0 {
			// Bit 1 exists on every multi-bit net; on a 1-bit net the
			// sibling is an invalid node, which must stay a scalar no-op.
			sibling.Node.Bit = 1
		}
		exps := []Experiment{
			{Node: n, Model: models[int(model)%len(models)], AtCycle: at},
			{Node: sibling, Model: rtl.BitFlip, AtCycle: at},
			{Node: n, Model: rtl.SETPulse, AtCycle: at + 1},
			{Node: n, Model: rtl.StuckAt1},
			{Node: n, Model: rtl.StuckAt0},
			{Node: n, Model: rtl.OpenLine},
			{Node: signalNodes(lanes, "iu.fe.pc")[2+node%8], Model: rtl.BitFlip, AtCycle: at},
		}
		want := ref.Campaign(exps, 1)
		const filler = 64
		padded := make([]Experiment, filler, filler+len(exps))
		for i := range padded {
			padded[i] = Experiment{Node: n, Model: rtl.SETPulse, AtCycle: lanes.GoldenCycles + 63}
		}
		padded = append(padded, exps...)
		for _, round := range []string{"cold", "warm"} {
			checkEngine(t, lanes, exps, want)
			if got := lanes.Campaign(padded, 1); !reflect.DeepEqual(got[filler:], want) {
				t.Fatalf("%s, behind %d filler lanes: got %+v, reference %+v", round, filler, got[filler:], want)
			}
		}
		// The input again, every transient a cycle earlier: its universes meet
		// the states the first ones parked in at instants of their own, and
		// take their endings from the runner's known futures.
		moved := slices.Clone(exps)
		for i := range moved {
			if moved[i].Model.Transient() && moved[i].AtCycle > 0 {
				moved[i].AtCycle--
			}
		}
		if got, want := lanes.Campaign(moved, 2), ref.Campaign(moved, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("a cycle earlier, on the warm runner: got %+v, reference %+v", got, want)
		}
		overlap := Expand([]NodeInfo{sibling, n, iu[(int(node)+1)%len(iu)]}, rtl.FaultModels()...)
		if got, want := lanes.Campaign(overlap, 2), ref.Campaign(overlap, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("overlapping campaign on the warm runner: got %+v, reference %+v", got, want)
		}
	})
}

// logAround publishes on r's read log what earlier campaigns over other nets
// would have left there: every register-file word, and every IU register
// whose edges the witness can watch — with its edges on an even net id, with
// its reads alone, as a permanent campaign logs it, on an odd one. A
// transient universe then finds logs for the words it spreads to, so it
// parks on words that are not its seed's, on several at once, and meets
// registers whose log cannot say when they were replaced.
func logAround(r *Runner) {
	d := design()
	m := &memo{}
	for id, n := range d.nets {
		x := logExtra(0)
		switch {
		case n.Name == "iu.rf.regs":
		case strings.HasPrefix(n.Name, "iu.") && d.k.EdgesWatchable(rtl.Node{Name: n.Name}):
			if id%2 == 0 {
				x = logEdges
			}
		default:
			continue
		}
		m.nets, m.extras = append(m.nets, int32(id)), append(m.extras, x)
	}
	r.readLogs(m)
}

// FuzzISSEquivalence is the ISS engine's oracle on generated programs
// (register windows, traps, annulled delay slots): for any node, model and
// instant, the production engine — golden log, fork at activation, the
// runner's verdict table, predecoded text — returns what the from-reset
// reference returns, by every path checkISSEngine walks. The fuzzed
// experiment shares its campaign with both stuck-ats and the open line that
// is the twin of one of them at the same fixed instant, an upset and a pulse
// one instruction on, the same on a sibling bit of the victim register, and a
// transient before the fixed instant; the pinned timebase gets its turn on
// odd instants. A second campaign then overlaps the first on the same runner
// — the node's forcings again, the sibling bit's in full and those of a
// neighbouring node, whose victim the table has not seen or shares — and is
// held to the reference too, so a stale or mis-keyed verdict is a finding.
//
// Smoke: make fuzz-smoke; longer:
// go test -run '^$' -fuzz FuzzISSEquivalence -fuzztime 5m ./internal/fault/
func FuzzISSEquivalence(f *testing.F) {
	// Program seed, node index (IU enumeration, then CMEM), model, fixed
	// instant (modulo the golden run's length + 64: some land past exit).
	f.Add(int64(1), uint32(2500), uint8(rtl.BitFlip), uint32(700))
	f.Add(int64(2), uint32(7000), uint8(rtl.StuckAt1), uint32(0))
	f.Add(int64(3), uint32(40), uint8(rtl.OpenLine), uint32(1201))
	f.Add(int64(4), uint32(3000), uint8(rtl.SETPulse), uint32(90000))
	f.Add(int64(5), uint32(9000), uint8(rtl.StuckAt0), uint32(15))
	f.Add(int64(6), uint32(2222), uint8(rtl.BitFlip), uint32(1<<31))
	f.Fuzz(func(t *testing.T, seed int64, node uint32, model uint8, instant uint32) {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		probe, err := NewISSRunner(p, Options{NoCheckpoint: true}, 0, 0)
		if err != nil {
			t.Skipf("no golden run: %v", err) // a program that ends in a trap
		}
		opts, cycleRef, fixed := Options{PulseCycles: 2}, uint64(0), uint64(instant)%(probe.goldenInsts+64)
		if instant%2 == 1 {
			cycleRef = probe.goldenInsts*8/5 + 3
			fixed = uint64(instant) % (cycleRef + 64)
		} else {
			opts.InjectAtCycle = fixed
		}
		prod, ref := issPair(t, p, opts, cycleRef, fixed)
		iu, cmem := Nodes(TargetIU), Nodes(TargetCMEM)
		var n NodeInfo
		if i := int(node) % (len(iu) + len(cmem)); i < len(iu) {
			n = iu[i]
		} else {
			n = cmem[i-len(iu)]
		}
		sibling := NodeInfo{Node: n.Node, Unit: n.Unit}
		sibling.Node.Bit ^= 1
		models := rtl.AllFaultModels()
		exps := []Experiment{
			{Node: n, Model: models[int(model)%len(models)], AtCycle: fixed},
			{Node: n, Model: rtl.StuckAt0},
			{Node: n, Model: rtl.StuckAt1},
			{Node: n, Model: rtl.OpenLine},
			{Node: n, Model: rtl.BitFlip, AtCycle: fixed + 1},
			{Node: n, Model: rtl.SETPulse, AtCycle: fixed + 1},
			{Node: sibling, Model: rtl.OpenLine},
			{Node: sibling, Model: rtl.BitFlip, AtCycle: fixed + 1},
			{Node: sibling, Model: rtl.SETPulse, AtCycle: fixed / 2},
		}
		checkISSEngine(t, prod, ref, exps)
		checkISSEngine(t, prod, ref, Expand([]NodeInfo{sibling, n, iu[(int(node)+1)%len(iu)]}, rtl.FaultModels()...))
	})
}
