package fault

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// issPair builds the production ISS runner for opts and its NoCheckpoint
// reference, which never shares the production runner's registry. A
// program whose golden run does not exit (a generated one may legitimately
// end in a trap) skips the test.
func issPair(t testing.TB, p *asm.Program, opts Options, cycleRef, fixedCycle uint64) (prod, ref *ISSRunner) {
	t.Helper()
	prod, err := NewISSRunner(p, opts, cycleRef, fixedCycle)
	if err != nil {
		t.Skipf("no golden run: %v", err)
	}
	opts.NoCheckpoint, opts.Obs = true, nil
	ref, err = NewISSRunner(p, opts, cycleRef, fixedCycle)
	if err != nil {
		t.Fatal(err)
	}
	return prod, ref
}

// checkISSEngine holds the production ISS engine to the NoCheckpoint
// reference's results for exps by every path an experiment can take: a
// campaign at one worker (on a fresh runner: forcings stepped, twins copied),
// RunOne and campaigns at two workers on the now warm runner (kept emulators,
// every forcing known to the runner's table).
func checkISSEngine(t testing.TB, prod, ref *ISSRunner, exps []Experiment) {
	t.Helper()
	want := ref.Campaign(exps, 1)
	check := func(path string, got []Result) {
		t.Helper()
		if reflect.DeepEqual(got, want) {
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: experiment %d (%v %v@%d, victim %+v): got %+v, reference %+v",
					path, i, exps[i].Model, exps[i].Node.Node, exps[i].AtCycle, victimOf(&exps[i].Node), got[i], want[i])
			}
		}
		t.Fatalf("%s: results differ from the from-reset reference", path)
	}
	check("Campaign, 1 worker", prod.Campaign(exps, 1))
	one := make([]Result, len(exps))
	for i, e := range exps {
		one[i] = prod.RunOne(e)
	}
	check("RunOne", one)
	check("Campaign, 2 workers", prod.Campaign(exps, 2))
	check("warm Campaign", prod.Campaign(exps, 2))
}

// issOracleExps crosses a node sample with all five models and spreads the
// transient instants around the fixed one: a third stay where the schedule
// put them (after it), a third move before it, a third past program exit.
func issOracleExps(r *ISSRunner, n int, seed int64) []Experiment {
	exps := Expand(SampleNodes(r.Nodes(TargetIU), n, seed), rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, seed)
	for i := range exps {
		switch {
		case !exps[i].Model.Transient():
		case i%3 == 1:
			exps[i].AtCycle = r.injectExt * uint64(i%7) / 7
		case i%3 == 2:
			exps[i].AtCycle = r.GoldenTicks() + uint64(i%5)
		}
	}
	return exps
}

// issOraclePrograms is every registered workload at one iteration plus
// generated programs, which bring register windows, traps and annulled
// delay slots — the boundaries that do not advance Icount.
func issOraclePrograms(t *testing.T) map[string]*asm.Program {
	t.Helper()
	progs := map[string]*asm.Program{}
	for _, name := range workloads.Names() {
		w, err := workloads.Build(name, workloads.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		progs[name] = w.Program
	}
	for seed := int64(1); seed <= 6; seed++ {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(200)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		progs[fmt.Sprintf("generated-%d", seed)] = p
	}
	return progs
}

// TestISSEngineMatchesReference is the ISS engine's oracle: the production
// path — golden log, forks at activation, shared verdicts, predecoded text
// — returns what the from-reset reference returns, on every workload and
// on generated programs, for all five models, at fixed instants at reset,
// mid-run, on the last instruction and past exit, with transients before
// and after the fixed instant, in the native and the pinned timebase.
func TestISSEngineMatchesReference(t *testing.T) {
	for name, p := range issOraclePrograms(t) {
		t.Run(name, func(t *testing.T) {
			probe, err := NewISSRunner(p, Options{NoCheckpoint: true}, 0, 0)
			if err != nil {
				t.Skipf("no golden run: %v", err)
			}
			g := probe.GoldenInsts
			// A pinned engine maps instants by golden-length ratio: an RTL
			// run about 1.6x as long, as the workalikes' are.
			cycleRef := g*8/5 + 3
			for _, pinned := range []bool{false, true} {
				span := g
				if pinned {
					span = cycleRef
				}
				for _, fixed := range []uint64{0, span / 2, span - 1, span + 9} {
					opts, ref, at := Options{PulseCycles: 2, InjectAtCycle: fixed}, uint64(0), uint64(0)
					if pinned {
						opts.InjectAtCycle, ref, at = 0, cycleRef, fixed
					}
					prod, naive := issPair(t, p, opts, ref, at)
					checkISSEngine(t, prod, naive, issOracleExps(prod, 10, int64(fixed)+1))
				}
			}
		})
	}
}

// nodeForVictim returns a node of the design that maps onto victim v.
func nodeForVictim(t *testing.T, r *ISSRunner, v victim) NodeInfo {
	t.Helper()
	for _, target := range []Target{TargetIU, TargetCMEM} {
		for _, n := range r.Nodes(target) {
			if victimOf(&n) == v {
				return n
			}
		}
	}
	t.Fatalf("no node maps onto victim %+v", v)
	return NodeInfo{}
}

// TestISSNeverActivatedIsFree holds the activation rule to its counters: a
// forced bit the golden run never reads differently, an open line whose
// charge never changes, and a transient past program exit are classified
// without one emulator step; a forcing that activates late steps from the
// rung below its activation, not from its instant.
func TestISSNeverActivatedIsFree(t *testing.T) {
	w, err := workloads.Build("puwmod", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	prod, ref := issPair(t, w.Program, Options{InjectAtFraction: 0.3, Obs: reg}, 0, 0)
	lg := prod.goldenLog()
	s0 := uint32(lg.boundary(prod.injectAt))
	var silent, late []Experiment
	for _, n := range prod.Nodes(TargetIU) {
		v := victimOf(&n)
		for _, m := range []rtl.FaultModel{rtl.StuckAt0, rtl.StuckAt1} {
			s, ok := lg.activation(v, uint32(m-rtl.StuckAt0), s0)
			switch {
			case !ok && len(silent) < 8:
				silent = append(silent, Experiment{Node: n, Model: m}, Experiment{Node: n, Model: rtl.OpenLine})
			case ok && s > s0+4*lg.stride && len(late) < 8:
				late = append(late, Experiment{Node: n, Model: m})
			}
		}
	}
	if len(silent) == 0 || len(late) == 0 {
		t.Fatalf("sample too narrow: %d never-activated, %d late-activated forcings", len(silent), len(late))
	}
	// A transient past program exit finds nothing left to upset.
	for _, m := range rtl.TransientFaultModels() {
		silent = append(silent, Experiment{Node: late[0].Node, Model: m, AtCycle: prod.GoldenInsts + 3})
	}

	checkISSEngine(t, prod, ref, append(append([]Experiment{}, silent...), late...))
	before := engineCounters(t, reg)
	for _, e := range silent {
		if res := prod.RunOne(e); res.Outcome != OutcomeNoEffect || res.Cycles != prod.GoldenInsts || res.Latency != -1 {
			t.Errorf("%v %v: got %+v, want the golden run's verdict", e.Model, e.Node.Node, res)
		}
	}
	after := engineCounters(t, reg)
	if got := after[`iss_engine_verdicts_total{path="free"}`] - before[`iss_engine_verdicts_total{path="free"}`]; got != float64(len(silent)) {
		t.Errorf("free verdicts = %v, want %d", got, len(silent))
	}
	if got := after["iss_engine_steps_total"] - before["iss_engine_steps_total"]; got != 0 {
		t.Errorf("never-activated experiments took %v emulator steps, want 0", got)
	}
	if got := after["iss_engine_experiments_total"] - before["iss_engine_experiments_total"]; got != float64(len(silent)) {
		t.Errorf("iss_engine_experiments_total moved by %v, want %d: free verdicts are experiments too", got, len(silent))
	}
	// A late activation replays fewer than one stride of clean steps, then
	// only the faulted run: never the stretch from the instant to it.
	for _, e := range late {
		v := victimOf(&e.Node)
		s, _ := lg.activation(v, uint32(e.Model-rtl.StuckAt0), s0)
		before := engineCounters(t, reg)["iss_engine_steps_total"]
		res := prod.RunOne(e)
		steps := engineCounters(t, reg)["iss_engine_steps_total"] - before
		// Steps and instructions differ by the stalls; the run ends after at
		// most Cycles+stalls steps, of which s are not taken.
		if limit := float64(res.Cycles) + float64(len(lg.stalls)) - float64(s) + float64(lg.stride); steps > limit {
			t.Errorf("%v %v activates at boundary %d (instant %d) and ran %d instructions: %v steps, want at most %v",
				e.Model, e.Node.Node, s, s0, res.Cycles, steps, limit)
		}
	}
}

// TestISSTwinsShareOneRun holds the verdict table to its counters: on a
// fresh runner every distinct (victim bit, forced value) is stepped once — an
// open line beside the stuck-at of its charge, and two RTL nodes that hash
// onto one victim — at one worker and at two, to the step. Transients stay
// out of the table: two upsets of one victim at one instant are two runs.
func TestISSTwinsShareOneRun(t *testing.T) {
	w, err := workloads.Build("puwmod", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := func(workers int) (perm, trans map[string]float64, permExps, transExps []Experiment) {
		reg := obs.NewRegistry()
		prod, ref := issPair(t, w.Program, Options{InjectAtFraction: 0.4, PulseCycles: 3, Obs: reg}, 0, 0)
		// Nodes that share a victim with an earlier node, and those earlier
		// nodes: every permanent model's run of the second is the first's.
		first := map[victim]NodeInfo{}
		var nodes []NodeInfo
		for _, n := range prod.Nodes(TargetIU) {
			v := victimOf(&n)
			if f, ok := first[v]; ok && len(nodes) < 24 {
				nodes = append(nodes, f, n)
				delete(first, v)
				continue
			}
			first[v] = n
		}
		if len(nodes) == 0 {
			t.Fatal("no two IU nodes share a victim")
		}
		permExps = Expand(nodes, rtl.FaultModels()...)
		transExps = Expand(nodes, rtl.TransientFaultModels()...)
		for i := range transExps {
			// One instant per pair: transient twins, were they shared.
			transExps[i].AtCycle = prod.injectAt + uint64(i/2*2%len(nodes))*7
		}
		for _, exps := range [][]Experiment{permExps, transExps} {
			got := prod.Campaign(exps, workers)
			if want := ref.Campaign(exps, 1); !reflect.DeepEqual(got, want) {
				t.Fatalf("%d workers: campaign differs from the reference", workers)
			}
			if trans = engineCounters(t, reg); perm == nil {
				perm = trans
			}
		}
		for k, v := range perm {
			trans[k] -= v
		}
		return perm, trans, permExps, transExps
	}
	one, oneT, exps, transExps := counts(1)
	two, twoT, _, _ := counts(2)
	if !reflect.DeepEqual(one, two) || !reflect.DeepEqual(oneT, twoT) {
		t.Errorf("counters differ between 1 and 2 workers:\n%v %v\n%v %v", one, oneT, two, twoT)
	}
	free, twin, stepped := one[`iss_engine_verdicts_total{path="free"}`], one[`iss_engine_verdicts_total{path="twin"}`], one[`iss_engine_verdicts_total{path="stepped"}`]
	if free+twin+stepped != float64(len(exps)) || one["iss_engine_experiments_total"] != float64(len(exps)) {
		t.Errorf("free %v + twin %v + stepped %v, experiments %v: want %d each way", free, twin, stepped, one["iss_engine_experiments_total"], len(exps))
	}
	// Per victim pair the six forcings are at most two runs (forced 0, forced
	// 1), each shared by two or four experiments.
	if twin < stepped {
		t.Errorf("twin %v < stepped %v: shared victims were stepped more than once", twin, stepped)
	}
	if twin == 0 || stepped == 0 {
		t.Errorf("twin %v, stepped %v: the campaign exercised only one path", twin, stepped)
	}
	if n := one["engine_verdict_table_entries"]; n != stepped || oneT["engine_verdict_table_entries"] != 0 {
		t.Errorf("table holds %v entries after %v runs, and the transient campaign added %v: want one per run and none",
			n, stepped, oneT["engine_verdict_table_entries"])
	}
	if got := oneT[`iss_engine_verdicts_total{path="stepped"}`] + oneT[`iss_engine_verdicts_total{path="free"}`]; got != float64(len(transExps)) {
		t.Errorf("%v of %d transient experiments stepped or free: none may be copied", got, len(transExps))
	}
}

// selfModifying stores a fresh instruction over one it has not reached yet,
// spins for longer than a rung spacing and then runs into the patched word:
// the golden run publishes 7 only if it executes what it stored.
const selfModifying = `
start:
	set patch, %l0
	set fresh, %l1
	ld [%l1], %l2
	st %l2, [%l0]          ! over an instruction ahead of the PC
	set 48, %l3
spin:
	subcc %l3, 1, %l3
	bne spin
	nop
	set 0, %o3
patch:
	add %o3, 5, %o3        ! by then: add %o3, 7, %o3
	set 0x90000004, %o5
	st %o3, [%o5]
	set 0x90000000, %o5
	st %g0, [%o5]
	nop
	.align 8
fresh:
	add %o3, 7, %o3
`

// redirectable stores a word through %l0 into buf; one flipped address bit
// (bit 6 of %l0) lands the store on the first instruction of tail instead,
// 64 bytes on: an off-core mismatch, where the faulted run stops.
const redirectable = `
start:
	ba body
	nop
	.align 128
buf:
	.word 0
	.space 60
tail:
	nop                    ! a redirected store puts "st %g0, [%o5]" here
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	nop
	st %g0, [%o5]          ! exit
	nop
body:
	set buf, %l0
	set fresh, %l1
	ld [%l1], %l2
	set 0x90000000, %o5
	set 48, %l3
spin:
	subcc %l3, 1, %l3
	bne spin
	nop
	st %l2, [%l0]
	ba tail
	nop
	.align 8
fresh:
	st %g0, [%o5]
`

// TestISSSelfModifiedText holds the decode-once table to memory: a word the
// golden run has stored into is fetched and decoded again by every fork,
// from rungs before and after the store; a word a fault sent a store to is
// marked for that run alone, and the next fork on its emulator executes the
// image's text again.
func TestISSSelfModifiedText(t *testing.T) {
	t.Run("golden store", func(t *testing.T) {
		p, err := asm.Assemble(selfModifying, mem.RAMBase)
		if err != nil {
			t.Fatal(err)
		}
		// A fork that has not mismatched by then runs on through the
		// patched word, as the golden run does.
		prod, ref := issPair(t, p, Options{}, 0, 0)
		for _, r := range []*ISSRunner{prod, ref} {
			if w := r.Golden().Writes; len(w) != 3 || w[1].Addr != mem.OutAddr || w[1].Data != 7 {
				t.Fatalf("golden writes %v: the stored instruction was not executed", w)
			}
		}
		lg := prod.goldenLog()
		if patch := (p.Symbols["patch"] - p.Origin) / 4; lg.text.Insts[patch].Op != 0 {
			t.Errorf("the word the golden run stored into is still predecoded: %v", lg.text.Insts[patch])
		}
		if len(lg.rungs) < 3 {
			t.Fatalf("%d rungs: none lies between the store and the patched word", len(lg.rungs))
		}
		// Upsets of registers the program never reads, at instants across
		// the run — most fork from a rung taken after the store — and
		// forcings of the patched sum, which activate at the patched word.
		var exps []Experiment
		for at := uint64(0); at < prod.GoldenInsts; at += 9 {
			exps = append(exps, Experiment{Node: nodeForVictim(t, prod, victim{reg: 7, bit: 3}), Model: rtl.BitFlip, AtCycle: at})
		}
		sum := nodeForVictim(t, prod, victim{reg: 11, bit: 1}) // %o3: 7 = 0b111
		exps = append(exps, Expand([]NodeInfo{sum}, rtl.AllFaultModels()...)...)
		checkISSEngine(t, prod, ref, exps)
		for _, res := range prod.Campaign(exps[:len(exps)-5], 1) {
			if res.Outcome != OutcomeNoEffect {
				t.Fatalf("an upset of an unread register: %+v, want no effect", res)
			}
		}
	})
	t.Run("redirected store", func(t *testing.T) {
		p, err := asm.Assemble(redirectable, mem.RAMBase)
		if err != nil {
			t.Fatal(err)
		}
		if buf, tail := p.Symbols["buf"], p.Symbols["tail"]; buf^tail != 1<<6 {
			t.Fatalf("buf %#x and tail %#x do not differ in address bit 6 alone", buf, tail)
		}
		prod, ref := issPair(t, p, Options{}, 0, 0)
		ptr := nodeForVictim(t, prod, victim{reg: 16, bit: 6}) // %l0
		exps := []Experiment{
			{Node: ptr, Model: rtl.StuckAt1},                                   // activates when %l0 is loaded
			{Node: ptr, Model: rtl.BitFlip, AtCycle: prod.GoldenInsts * 2 / 3}, // forks mid-spin
			{Node: ptr, Model: rtl.StuckAt0},                                   // never differs
		}
		checkISSEngine(t, prod, ref, exps)
		got := prod.Campaign(exps, 1)
		store := prod.Golden().Writes[0].Seq // the golden run's store into buf
		for i, res := range got[:2] {
			// The store went astray: a mismatch at its own instant, and
			// the run ends there.
			if res.Outcome != OutcomeMismatch || uint64(res.Latency)+res.InjectAt != store || res.Cycles != store+1 {
				t.Errorf("experiment %d: %+v, want a mismatch at instruction %d ending the run", i, res, store)
			}
		}
		if got[2].Outcome != OutcomeNoEffect {
			t.Errorf("stuck-at-0 of a clear bit: %+v", got[2])
		}
		// The redirected store marked its own run alone: the next fork on
		// the same kept emulator executes the image's text again.
		if res := prod.RunOne(exps[2]); res != got[2] {
			t.Errorf("after a redirected run: %+v, want %+v", res, got[2])
		}
		if res := prod.RunOne(Experiment{Node: ptr, Model: rtl.BitFlip, AtCycle: prod.GoldenInsts - 2}); res.Outcome != OutcomeNoEffect {
			t.Errorf("an upset after the store, on the emulator a redirected run used: %+v", res)
		}
	})
}

// TestISSReferenceIsNaive pins what NoCheckpoint selects on the ISS engine,
// since every test above leans on it being independent of the machinery
// under test: no golden log (hence no rung and no predecoded text), no
// kept emulator, no verdict table, and every experiment stepped.
func TestISSReferenceIsNaive(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewISSRunner(w.Program, Options{InjectAtFraction: 0.3, NoCheckpoint: true, Obs: reg}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	exps := issOracleExps(r, 8, 3)
	r.PrepareCheckpoint()
	r.Campaign(exps, 2)
	if r.log != nil {
		t.Error("reference campaign built a golden log")
	}
	if r.engines.get() != nil {
		t.Error("reference campaign kept an emulator")
	}
	if n, slots := r.verdicts.held(); n != 0 || slots != 0 {
		t.Errorf("reference campaign kept %d verdicts in %d slots", n, slots)
	}
	c := engineCounters(t, reg)
	if got := c[`iss_engine_verdicts_total{path="stepped"}`]; got != float64(len(exps)) || c["iss_engine_experiments_total"] != got {
		t.Errorf("stepped %v of %v experiments, want all %d", got, c["iss_engine_experiments_total"], len(exps))
	}
	if free, twin, known := c[`iss_engine_verdicts_total{path="free"}`], c[`iss_engine_verdicts_total{path="twin"}`], c[`iss_engine_verdicts_total{path="known"}`]; free != 0 || twin != 0 || known != 0 {
		t.Errorf("free %v, twin %v, known %v on the reference engine, want 0", free, twin, known)
	}
	if c["iss_engine_steps_total"] < float64(len(exps))*float64(r.injectAt) {
		t.Errorf("iss_engine_steps_total = %v: the reference did not step from reset", c["iss_engine_steps_total"])
	}
}

// TestVictimTableMatchesHash: the design table's victim column is the hash
// it replaced, so the ISS bytes do not move. Every node of both targets —
// each on a net of the design — reads from the table the register the
// frozen hash of its net's name and word gives, and its own bit; a
// hand-built node on no net of the design falls back to that hash, and a
// hand-built copy of a design node, which carries no net id, meets the
// table's answer.
func TestVictimTableMatchesHash(t *testing.T) {
	hashed := func(n rtl.Node) victim {
		h := splitmix64(strHash(n.Name) + uint64(n.Word)*0x9e3779b97f4a7c15)
		return victim{reg: 1 + int(h%31), bit: uint(n.Bit) & 31}
	}
	d := design()
	if len(d.victims) != len(d.nets) {
		t.Fatalf("%d victims for %d nets", len(d.victims), len(d.nets))
	}
	regs := map[int]bool{}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		for _, n := range d.nodesOf(target) {
			if n.facts&factsSet == 0 || n.net < 0 {
				t.Fatalf("%v %v: enumerated without a net id", target, n.Node)
			}
			got, want := victimOf(&n), hashed(n.Node)
			if got != want {
				t.Fatalf("%v %v: victim %+v from the table, the hash gives %+v", target, n.Node, got, want)
			}
			if hand := (NodeInfo{Node: n.Node, Unit: n.Unit}); victimOf(&hand) != want {
				t.Fatalf("%v %v: hand-built, victim %+v, want %+v", target, n.Node, victimOf(&hand), want)
			}
			regs[got.reg] = true
		}
	}
	if len(regs) != 31 {
		t.Errorf("the design's nodes hit %d registers, want all 31 of g1–r31", len(regs))
	}
	for _, n := range []rtl.Node{{Name: "no.such.net", Bit: 37}, {Name: "iu.rf.regs", Word: 1 << 20, Bit: 5}} {
		hand := NodeInfo{Node: n}
		if _, id := hand.plan(); id >= 0 {
			t.Fatalf("%v: on net %d of the design", n, id)
		}
		if got, want := victimOf(&hand), hashed(n); got != want {
			t.Errorf("%v: victim %+v, the hash gives %+v", n, got, want)
		}
	}
}
