package leon3_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// frontEnd reports whether a register or array belongs to what a wedged
// core keeps moving: the fetch PC, the DE/RA/EX input registers, the
// redirect latch and the instruction cache.
func frontEnd(name string) bool {
	for _, p := range []string{"iu.fe.", "iu.de.", "iu.ra.", "iu.ex.", "cmem.ic."} {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return name == "iu.ctl.redirt"
}

// backEnd reads every register and array word outside the front end, as
// consumers see them.
func backEnd(c *leon3.Core) []uint64 {
	var out []uint64
	for _, s := range c.K.Signals() {
		if s.IsReg() && !frontEnd(s.Name()) {
			out = append(out, s.Get())
		}
	}
	for _, a := range c.K.Arrays() {
		if frontEnd(a.Name()) {
			continue
		}
		for i := 0; i < a.Len(); i++ {
			out = append(out, a.Read(i))
		}
	}
	return out
}

func signal(t testing.TB, c *leon3.Core, name string) *rtl.Signal {
	t.Helper()
	for _, s := range c.K.Signals() {
		if s.Name() == name {
			return s
		}
	}
	t.Fatalf("no signal %s", name)
	return nil
}

// lemmaOf names the lemma a proof under fault f can only have come from.
func lemmaOf(f rtl.Fault) string {
	switch {
	case f.Model.Transient():
		return "unforced"
	case strings.HasSuffix(f.Node.Name, ".valid"):
		return "valid chain"
	case strings.HasSuffix(f.Node.Name, ".pc"):
		return "PC bit"
	case f.Node.Name == "iu.ctl.halt":
		return "halt"
	}
	return "fetch distance"
}

// proofNet reports whether a forcing of the net is one a Wedged lemma names
// (DESIGN.md §10), or a transient of the PC chain, after whose release the
// unforced lemmas apply.
func proofNet(name string) bool {
	switch name {
	case "iu.ctl.halt", "iu.de.valid", "iu.ra.valid", "iu.ex.valid", "iu.ctl.redirt", "iu.fe.redir":
		return true
	}
	return pcChain(name)
}

func pcChain(name string) bool {
	return strings.HasSuffix(name, ".pc") || name == "iu.ctl.exppc" || name == "iu.fe.redirpc"
}

// TestWedgedHoldsToHorizon is the soundness audit of Core.Wedged. Every IU
// signal bit stuck at 0 and at 1, plus a two-cycle glitch and an upset on
// every bit of the PC chain, is armed on a core forked from the clean run
// at two instants, on two workloads and three generated programs. The
// universe is stepped the way a campaign steps it — to exit, error mode,
// the first off-core mismatch or the 3×golden+10,000 budget — and Wedged
// is asked before every cycle once nothing is left to release, with the
// campaign's real remaining budget as horizon. The first time it says
// true the universe is stepped all the way there: it must write nothing
// off-core, retire nothing, stay running, and leave every register and
// array word outside the front end as it was at the proof. Under the race
// detector, which a single-goroutine sweep shows nothing, it runs the nets a
// lemma names and a seeded 1/wedgedRest of the rest; the plain build runs
// them all.
func TestWedgedHoldsToHorizon(t *testing.T) {
	type program struct {
		name string
		p    *asm.Program
	}
	var programs []program
	for _, name := range []string{"rspeed", "puwmod"} {
		w, err := workloads.Build(name, workloads.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, w.Program})
	}
	for seed := int64(1); seed <= 3; seed++ {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		programs = append(programs, program{fmt.Sprintf("generated-%d", seed), p})
	}
	const pulse = 2
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			t.Parallel()
			fresh := func() *leon3.Core {
				m := mem.NewMemory()
				m.LoadImage(pr.p.Origin, pr.p.Image)
				return leon3.New(mem.NewBus(m), pr.p.Entry)
			}
			gold := fresh()
			if gold.Run(200_000_000) != iss.StatusExited {
				t.Skipf("golden run ends %v", gold.Status())
			}
			golden, budget := gold.Bus.Trace.Writes, 3*gold.Cycles()+10_000

			core := fresh()
			var faults []rtl.Fault
			rest := rand.New(rand.NewSource(1))
			for _, n := range core.K.Nodes("iu.") {
				if core.K.IsArrayWord(n) || !proofNet(n.Name) && rest.Intn(wedgedRest) != 0 {
					continue
				}
				faults = append(faults, rtl.Fault{Node: n, Model: rtl.StuckAt0}, rtl.Fault{Node: n, Model: rtl.StuckAt1})
				if pcChain(n.Name) {
					faults = append(faults, rtl.Fault{Node: n, Model: rtl.SETPulse}, rtl.Fault{Node: n, Model: rtl.BitFlip})
				}
			}
			proofs := map[string]int{}
			for _, instant := range []uint64{gold.Cycles() / 3, gold.Cycles() * 3 / 4} {
				base := fresh()
				for base.Cycles() < instant {
					base.StepCycle()
				}
				snap, img, prefix := base.Snapshot(), base.Bus.Mem.Snapshot(), len(base.Bus.Trace.Writes)
				for _, f := range faults {
					core.Bus = mem.NewBus(img.Fork())
					if err := core.Restore(snap); err != nil {
						t.Fatal(err)
					}
					if err := core.K.Inject(f); err != nil {
						t.Fatal(err)
					}
					release := uint64(0)
					if f.Model == rtl.SETPulse {
						release = instant + pulse
					}
					idx, mismatch := prefix, false
					core.Bus.OnWrite = func(a mem.Access) {
						if g := golden; idx >= len(g) || a.Addr != g[idx].Addr || a.Size != g[idx].Size || a.Data != g[idx].Data {
							mismatch = true
						}
						idx++
					}
					for core.Status() == iss.StatusRunning && core.Cycles() < budget && !mismatch {
						if release != 0 && core.Cycles() >= release {
							core.K.ClearFaults()
							release = 0
						}
						h := budget - core.Cycles()
						if release != 0 || !core.Wedged(h) {
							core.StepCycle()
							continue
						}
						proofs[lemmaOf(f)]++
						at, writes, icount, before := core.Cycles(), len(core.Bus.Trace.Writes), core.Icount, backEnd(core)
						for ; h > 0; h-- {
							core.StepCycle()
						}
						if core.Status() != iss.StatusRunning || core.Bus.Exited() || len(core.Bus.Trace.Writes) != writes || core.Icount != icount {
							t.Fatalf("%v at %d: wedged at cycle %d, yet by the budget: status %v, exited %v, %d off-core writes, %d instructions retired",
								f, instant, at, core.Status(), core.Bus.Exited(), len(core.Bus.Trace.Writes)-writes, core.Icount-icount)
						}
						for i, v := range backEnd(core) {
							if v != before[i] {
								t.Fatalf("%v at %d: wedged at cycle %d, yet back-end word %d moved from %#x to %#x", f, instant, at, i, before[i], v)
							}
						}
					}
				}
			}
			t.Logf("%d faults × 2 instants, budget %d: proofs %v", len(faults), budget, proofs)
			if pr.name == "rspeed" {
				for _, lemma := range []string{"halt", "valid chain", "PC bit", "fetch distance", "unforced"} {
					if proofs[lemma] == 0 {
						t.Errorf("no universe proven wedged by the %s lemma: the audit does not reach it", lemma)
					}
				}
			}
		})
	}
}

// TestWedgedRefusesNearMisses builds, register by register, one state each
// lemma accepts, and then the states one premise short of it: all of those
// must be refused.
func TestWedgedRefusesNearMisses(t *testing.T) {
	const (
		h     = 1000
		entry = 0x40000000
		expPC = 0x40001000
		high  = 1 << 31
	)
	type core struct {
		*leon3.Core
		t *testing.T
	}
	set := func(c core, name string, v uint64) { signal(c.t, c.Core, name).Set(v) }
	force := func(c core, name string, bit int, m rtl.FaultModel) {
		if err := c.K.Inject(rtl.Fault{Node: rtl.Node{Name: name, Bit: bit}, Model: m}); err != nil {
			c.t.Fatal(err)
		}
	}
	// The four accepted states, on a core whose registers are otherwise at
	// reset: an empty pipeline, nothing in flight.
	pcBit := func(c core) {
		force(c, "iu.ra.pc", 31, rtl.StuckAt1)
		set(c, "iu.ctl.exppc", expPC)
		set(c, "iu.ra.valid", 1)
		set(c, "iu.ex.valid", 1)
		set(c, "iu.ex.pc", high|expPC)
	}
	validChain := func(c core) {
		force(c, "iu.de.valid", 0, rtl.StuckAt0)
		set(c, "iu.de.valid", 1)
	}
	halted := func(c core) { set(c, "iu.ctl.halt", 1) }
	far := func(c core) {
		set(c, "iu.ctl.redirt", 1)
		set(c, "iu.ctl.exppc", expPC)
		set(c, "iu.fe.pc", expPC-4*(h+1))
	}
	with := func(fs ...func(core)) func(core) {
		return func(c core) {
			for _, f := range fs {
				f(c)
			}
		}
	}
	for _, tc := range []struct {
		name  string
		setup func(core)
		want  bool
	}{
		{"PC bit", pcBit, true},
		{"valid chain", validChain, true},
		{"halt", halted, true},
		{"halt forced", func(c core) { force(c, "iu.ctl.halt", 0, rtl.StuckAt1) }, true},
		{"fetch distance", far, true},
		{"fetch distance, exppc unaligned", with(far, func(c core) { set(c, "iu.fe.pc", expPC-8); set(c, "iu.ctl.exppc", expPC+2) }), true},
		{"fetch distance under a redirpc forcing", with(far, func(c core) { force(c, "iu.fe.redirpc", 12, rtl.StuckAt1) }), true},
		{"fetch distance, redirect wire cut", with(far, func(c core) { force(c, "iu.fe.redir", 0, rtl.StuckAt0) }), true},

		{"reset state: exppc is being fetched", func(core) {}, false},
		{"exppc bit equal to the forced bit", with(pcBit, func(c core) { set(c, "iu.ctl.exppc", high|expPC) }), false},
		{"a valid downstream stage still carries the unforced PC", with(pcBit, func(c core) { set(c, "iu.ex.pc", expPC) }), false},
		{"fe.pc bit 1 forced to 1 is masked on its way to DE", func(c core) {
			force(c, "iu.fe.pc", 1, rtl.StuckAt1)
			set(c, "iu.ctl.exppc", expPC)
			for _, pc := range []string{"iu.de.pc", "iu.ra.pc", "iu.ex.pc"} {
				set(c, pc, expPC|2)
			}
		}, false},
		{"exppc within 4·horizon ahead of fe.pc", with(far, func(c core) { set(c, "iu.fe.pc", expPC-4*h) }), false},
		{"exppc in RA", with(far, func(c core) { set(c, "iu.ra.valid", 1); set(c, "iu.ra.pc", expPC) }), false},
		{"ctl.redirt 0", with(far, func(c core) { set(c, "iu.ctl.redirt", 0) }), false},
		{"redirect wire stuck high", with(far, func(c core) { force(c, "iu.fe.redir", 0, rtl.StuckAt1) }), false},
		{"a store still in ME", with(pcBit, func(c core) { set(c, "iu.me.valid", 1); set(c, "iu.me.ismem", 1); set(c, "iu.me.store", 1) }), false},
		{"a trap's writeback still in XC", with(halted, func(c core) { set(c, "iu.xc.valid", 1); set(c, "iu.xc.wb2en", 1) }), false},
		{"a result still in WB", with(far, func(c core) { set(c, "iu.wb.wben", 1) }), false},
		{"error mode", with(halted, func(c core) { set(c, "iu.ctl.errm", 1) }), false},
		{"a valid stage behind the forced-empty one", with(validChain, func(c core) { set(c, "iu.ex.valid", 1) }), false},
		{"de.valid stuck at 1", func(c core) { force(c, "iu.de.valid", 0, rtl.StuckAt1) }, false},
		{"two armed faults", with(pcBit, func(c core) { force(c, "iu.ra.pc", 30, rtl.StuckAt1) }), false},
		{"a second fault on another net", with(halted, func(c core) { force(c, "iu.ctl.halt", 0, rtl.StuckAt1); force(c, "iu.ex.a", 3, rtl.StuckAt0) }), false},
		{"a forcing on ctl.exppc itself", with(far, func(c core) { force(c, "iu.ctl.exppc", 31, rtl.StuckAt1) }), false},
		{"a cmem signal forcing", with(far, func(c core) { force(c, "cmem.ic.hit", 0, rtl.StuckAt0) }), false},
		{"a cmem array forcing", with(halted, func(c core) {
			if err := c.K.Inject(rtl.Fault{Node: rtl.Node{Name: "cmem.ic.data", Word: 5, Bit: 1}, Model: rtl.StuckAt1}); err != nil {
				c.t.Fatal(err)
			}
		}), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := core{leon3.New(mem.NewBus(mem.NewMemory()), entry), t}
			tc.setup(c)
			if got := c.Wedged(h); got != tc.want {
				t.Fatalf("Wedged(%d) = %v, want %v", h, got, tc.want)
			}
			if !tc.want {
				return
			}
			// An accepted state is held to its word like any other.
			before := backEnd(c.Core)
			for i := 0; i < h; i++ {
				c.StepCycle()
			}
			if c.Status() != iss.StatusRunning || len(c.Bus.Trace.Writes) != 0 || c.Icount != 0 {
				t.Fatalf("after %d cycles: status %v, %d off-core writes, %d instructions", h, c.Status(), len(c.Bus.Trace.Writes), c.Icount)
			}
			for i, v := range backEnd(c.Core) {
				if v != before[i] {
					t.Fatalf("back-end word %d moved from %#x to %#x", i, before[i], v)
				}
			}
		})
	}
}
