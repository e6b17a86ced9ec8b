package fault

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// faultedCycles indexes engine_faulted_cycles_total in proofCounts.
const faultedCycles = len(proofs)

// proofCounts reads engine_verdicts_proven_total off reg, in proofs order,
// with engine_faulted_cycles_total last.
func proofCounts(t *testing.T, reg *obs.Registry) (n [len(proofs) + 1]float64) {
	t.Helper()
	counters := engineCounters(t, reg)
	for i, p := range proofs {
		n[i] = counters[fmt.Sprintf("engine_verdicts_proven_total{proof=%q}", p)]
	}
	n[faultedCycles] = counters["engine_faulted_cycles_total"]
	return n
}

func sub(a, b [len(proofs) + 1]float64) [len(proofs) + 1]float64 {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

// signalNodes returns every bit of the named IU signals.
func signalNodes(r *Runner, names ...string) []NodeInfo {
	var out []NodeInfo
	for _, n := range Nodes(TargetIU) {
		for _, name := range names {
			if n.Node.Name == name {
				out = append(out, n)
			}
		}
	}
	return out
}

// pick returns the given bits of one IU signal.
func pick(r *Runner, name string, bits ...int) []NodeInfo {
	all := signalNodes(r, name)
	out := make([]NodeInfo, len(bits))
	for i, b := range bits {
		out[i] = all[b]
	}
	return out
}

// TestProvenVerdictsEquivalence holds the four proofs of resolve and
// resolveOnce to the from-reset reference, byte for byte, on faults chosen
// to reach them. The first 64 nodes are the fetch PC, the multiply/divide
// counter and the low half of the decode instruction register: under all
// five models, a divider that never finishes and a decode word that traps
// the program in a loop hang in a state that recurs; the open-line lane of
// every node is the twin of its stuck-at-0 or stuck-at-1 lane; PC upsets
// and glitches cost a refetch and come back onto the golden trajectory a
// few cycles late. The other 64 are the nets whose hangs recurrence cannot
// prove, because the fetch free-runs behind a dead EX gate — low and high
// bits of the DE/RA/EX stage PCs and the redirect target, the three valid
// bits, ctl.halt, ctl.redirt, the redirect request, and ctl.exppc for the
// glitch that sends the fetch away and then takes the target back: every
// lemma of leon3.Core.Wedged, armed and unarmed. Each model's 128 lanes
// are drawn one at a time, so a twin finds its verdict resolved by its own
// worker, by another one, or waits for it (two, three and five workers). The counters — faulted cycles
// included — must not move with the worker count: each count is measured on
// a runner of its own, whose verdict table holds nothing yet, and so proves
// nothing known, and whose table of futures holds no earlier call's state, so
// proves no future; none of these pipeline registers keeps an upset to
// program exit, so nothing need end parked (TestReconvergenceWorkCounters has
// those). A second call on the last runner then proves both known verdicts
// and known futures, to the same bytes. The reference takes none of the
// proving branches.
func TestProvenVerdictsEquivalence(t *testing.T) {
	for _, name := range []string{"rspeed", "excerptA"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Build(name, workloads.Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			// The reference gets a registry of its own here: it must prove nothing.
			refReg := obs.NewRegistry()
			fresh := func() (*Runner, *obs.Registry) {
				reg := obs.NewRegistry()
				r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, PulseCycles: 2, Obs: reg})
				if err != nil {
					t.Fatal(err)
				}
				return r, reg
			}
			prod, reg := fresh()
			ref, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, PulseCycles: 2, NoCheckpoint: true, Obs: refReg})
			if err != nil {
				t.Fatal(err)
			}
			nodes := append(signalNodes(prod, "iu.fe.pc", "iu.md.count"), signalNodes(prod, "iu.de.inst")[:26]...)
			ends := []int{2, 3, 4, 5, 6, 7, 26, 27, 28, 29, 30, 31}
			for _, pc := range []string{"iu.de.pc", "iu.ra.pc", "iu.ex.pc", "iu.fe.redirpc"} {
				nodes = append(nodes, pick(prod, pc, ends...)...)
			}
			nodes = append(nodes, pick(prod, "iu.ctl.exppc", ends[1:11]...)...)
			nodes = append(nodes, signalNodes(prod, "iu.de.valid", "iu.ra.valid", "iu.ex.valid", "iu.ctl.halt", "iu.ctl.redirt", "iu.fe.redir")...)
			if len(nodes) != 128 {
				t.Fatalf("%d nodes, want 128", len(nodes))
			}
			exps := Expand(nodes, rtl.AllFaultModels()...)
			prod.ScheduleTransients(exps, 5)
			want := ref.Campaign(exps, 0)
			var first [len(proofs) + 1]float64
			for _, workers := range []int{1, 2, 3, 5} {
				prod, reg = fresh()
				before := proofCounts(t, reg)
				if got := prod.Campaign(exps, workers); !reflect.DeepEqual(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%d workers: %v %v@%d: got %+v, reference %+v", workers, exps[i].Model, exps[i].Node.Node, exps[i].AtCycle, got[i], want[i])
						}
					}
					t.Fatalf("%d workers: campaign differs from the from-reset reference", workers)
				}
				n := sub(proofCounts(t, reg), before)
				t.Logf("%d workers: proven equivalent %v, recurrent %v, shifted %v, wedged %v; %v faulted cycles", workers, n[provenEquivalent], n[provenRecurrent], n[provenShifted], n[provenWedged], n[faultedCycles])
				for i, p := range proofs {
					if i != provenParked && (n[i] == 0) != (i == provenKnown || i == provenFuture) {
						t.Errorf("%d workers: %v verdicts proven %s on a fresh runner", workers, n[i], p)
					}
				}
				if workers == 1 {
					first = n
				} else if n != first {
					t.Errorf("%d workers: proof and cycle counters %v, at 1 worker %v", workers, n, first)
				}
			}

			// A second call on the last runner: every permanent forcing is known,
			// and a transient universe that parks meets the state it parked in
			// in the first call — the same bytes, fewer cycles.
			before := proofCounts(t, reg)
			if got := prod.Campaign(exps, 2); !reflect.DeepEqual(got, want) {
				t.Fatal("second call: campaign differs from the from-reset reference")
			}
			n := sub(proofCounts(t, reg), before)
			t.Logf("second call: known %v, future %v; %v faulted cycles", n[provenKnown], n[provenFuture], n[faultedCycles])
			if n[provenKnown] == 0 || n[provenFuture] == 0 || n[faultedCycles] >= first[faultedCycles] {
				t.Errorf("second call: known %v, future %v, %v faulted cycles (first call %v)", n[provenKnown], n[provenFuture], n[faultedCycles], first[faultedCycles])
			}

			// Experiment by experiment (RunOne: no verdict table, so no twins): what a
			// proof finalizes is exactly what the reference steps to.
			var recurrent, shifted int
			wedged := map[string]bool{}
			for i, e := range exps {
				before := proofCounts(t, reg)
				got := prod.RunOne(e)
				n := sub(proofCounts(t, reg), before)
				if got != want[i] {
					t.Fatalf("RunOne %v %v@%d: got %+v, reference %+v", e.Model, e.Node.Node, e.AtCycle, got, want[i])
				}
				if n[provenRecurrent] > 0 {
					recurrent++
					if got.Outcome != OutcomeHang || got.Cycles != prod.budget || n[faultedCycles] >= float64(prod.budget-got.InjectAt) {
						t.Errorf("%v %v proven recurrent after %v cycles: %+v, want a hang at the %d-cycle budget", e.Model, e.Node.Node, n[faultedCycles], got, prod.budget)
					}
				}
				if n[provenWedged] > 0 {
					wedged[e.Node.Node.Name] = true
					if got.Outcome != OutcomeHang || got.Cycles != prod.budget || n[faultedCycles] >= float64(prod.budget-got.InjectAt) {
						t.Errorf("%v %v@%d proven wedged after %v cycles: %+v, want a hang at the %d-cycle budget", e.Model, e.Node.Node, e.AtCycle, n[faultedCycles], got, prod.budget)
					}
				}
				if n[provenShifted] > 0 {
					shifted++
					if !e.Model.Transient() || got.Outcome != OutcomeNoEffect || got.Cycles <= prod.GoldenCycles || got.Cycles-prod.GoldenCycles >= prod.ladder().stride {
						t.Errorf("%v %v@%d proven shifted: %+v, want no effect a few cycles past the golden %d", e.Model, e.Node.Node, e.AtCycle, got, prod.GoldenCycles)
					}
				}
			}
			if recurrent == 0 || shifted == 0 {
				t.Errorf("RunOne proved %d verdicts recurrent, %d shifted", recurrent, shifted)
			}
			for _, net := range []string{"iu.fe.pc", "iu.de.pc", "iu.ra.pc", "iu.ex.pc", "iu.fe.redirpc", "iu.ctl.exppc",
				"iu.de.valid", "iu.ra.valid", "iu.ex.valid", "iu.ctl.halt", "iu.ctl.redirt", "iu.fe.redir"} {
				if !wedged[net] {
					t.Errorf("no fault on %s proven wedged", net)
				}
			}
			if n := proofCounts(t, refReg); n != [len(proofs) + 1]float64{faultedCycles: n[faultedCycles]} || n[faultedCycles] == 0 {
				t.Errorf("the reference engine's proof and cycle counters read %v: it must step to every verdict", n)
			}
		})
	}
}

// TestUnprovableVerdictsAreStepped is the other half: universes that look
// like the proven ones and are not. An expected PC or next PC with a bit
// stuck, an annul flag stuck high and a multiply/divide counter that never
// runs out all hang with a dead-looking pipeline, but EX keeps passing its
// gate or the back end stays busy — none of them is wedged, and only the
// divider's state recurs; a glitch whose window never closes still has a
// release pending, however periodic or wedged the core looks, and is
// neither recurrent nor wedged nor (forcing armed) shifted. All of them
// must cost what the reference pays and say what it says.
func TestUnprovableVerdictsAreStepped(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	stepped := func(t *testing.T, reg *obs.Registry, prod, ref *Runner, e Experiment) Result {
		t.Helper()
		before := proofCounts(t, reg)
		got, want := prod.RunOne(e), ref.RunOne(e)
		if got != want {
			t.Fatalf("%v %v: got %+v, reference %+v", e.Model, e.Node.Node, got, want)
		}
		if n := sub(proofCounts(t, reg), before); n[provenRecurrent]+n[provenShifted]+n[provenWedged] != 0 {
			t.Errorf("%v %v declared proven (%v): %+v", e.Model, e.Node.Node, n, got)
		}
		return got
	}

	t.Run("livelock", func(t *testing.T) {
		reg := obs.NewRegistry()
		prod, ref := enginePair(t, w.Program, Options{InjectAtFraction: 0.5, Obs: reg})
		// The divider counter's universes recur, with EX re-entering the unit
		// every cycle, and so does the odd expected-PC bit: proven, but never
		// as wedged. The rest is stepped to the budget.
		hangs, recurrent := 0, 0
		for _, n := range signalNodes(prod, "iu.ctl.exppc", "iu.ctl.expnpc", "iu.ctl.annul", "iu.md.count") {
			e := Experiment{Node: n, Model: rtl.StuckAt1}
			before := proofCounts(t, reg)
			got, want := prod.RunOne(e), ref.RunOne(e)
			if got != want {
				t.Fatalf("%v %v: got %+v, reference %+v", e.Model, e.Node.Node, got, want)
			}
			n := sub(proofCounts(t, reg), before)
			if n[provenWedged]+n[provenShifted] != 0 {
				t.Errorf("%v %v declared proven (%v) with EX passing its gate: %+v", e.Model, e.Node.Node, n, got)
			}
			switch {
			case n[provenRecurrent] > 0:
				recurrent++
			case got.Outcome == OutcomeHang:
				hangs++
				if n[faultedCycles] < float64(prod.budget-got.InjectAt) {
					t.Errorf("%v %v: a hang after %v cycles with nothing proven: %+v", e.Model, e.Node.Node, n[faultedCycles], got)
				}
			}
		}
		if hangs < 5 {
			t.Errorf("%d hangs stepped to the budget: the set does not reach the look-alikes", hangs)
		}
		if recurrent == 0 {
			t.Error("no stuck divider counter proven recurrent")
		}
	})

	t.Run("open pulse window", func(t *testing.T) {
		reg := obs.NewRegistry()
		prod, ref := enginePair(t, w.Program, Options{InjectAtFraction: 0.5, PulseCycles: 1 << 20, Obs: reg})
		hangs := 0
		for _, n := range signalNodes(prod, "iu.fe.pc")[2:10] {
			// A low fetch-PC bit forced to 0 loops the core for good (the
			// stuck-at-0 lanes of the test above); forced by a glitch that
			// outlasts the budget it is the same hang, unproven.
			e := Experiment{Node: n, Model: rtl.SETPulse, AtCycle: prod.InjectCycle()}
			if got := stepped(t, reg, prod, ref, e); got.Outcome == OutcomeHang {
				hangs++
			}
			if got, want := prod.Campaign([]Experiment{e}, 1)[0], ref.RunOne(e); got != want {
				t.Errorf("as a lane: %v: got %+v, reference %+v", n.Node, got, want)
			}
		}
		if n := proofCounts(t, reg); hangs == 0 || n[provenRecurrent]+n[provenShifted]+n[provenWedged] != 0 {
			t.Errorf("%d hangs under a glitch that is never released, proofs %v", hangs, n)
		}
	})
}

// TestFaultedCyclesByOutcome pins the split of engine_faulted_cycles_total:
// the outcome-labelled series sum to it, and healed universes are booked
// apart from the no-effects that ran to exit. The hang series is pinned by
// value: this campaign's five hangs cost 38,113 cycles while the three
// whose fetch free-runs behind a dead EX gate (a cut redirect wire, a decode
// stage forced or glitched empty) were stepped to the 12,814-cycle budget,
// and 775 now that they are proven wedged within a few cycles of their
// activation; of the other two, a redirect stuck high recurs and the open
// line shares its stuck-at twin's run; 7,185 cycles ended otherwise. The
// 16-cycle ladder (part B) then took both down, 775 to 711 in fork replay
// and 7,185 to 4,576 in replay and in heals seen within a rung of their
// cycle; consumption-exact operand reads (part A) moved no counter of this
// campaign. Upsets parked on their net's log — register upsets among them,
// lanes since the witness watches clock edges — took the 4,576 to 3,693 and
// no hang cycle: what went is stepping from a don't-care read to the next
// real one. Forking the fork point at or below a cycle, three clean cycles
// away at most, took the 347 cycles of fork replay to 55: 4,404 faulted
// cycles to 4,112, the hangs' 711 to 687.
func TestFaultedCyclesByOutcome(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, PulseCycles: 2, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(Nodes(TargetIU), 96, 5), rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, 5)
	r.Campaign(exps, 2)
	sum, counters := 0.0, engineCounters(t, reg)
	for name, v := range counters {
		if strings.HasPrefix(name, "engine_faulted_cycles_by_outcome_total{") {
			sum += v
		}
	}
	if total := counters["engine_faulted_cycles_total"]; total == 0 || sum != total {
		t.Errorf("outcome-labelled cycles sum to %v, engine_faulted_cycles_total is %v", sum, total)
	}
	if counters[`engine_faulted_cycles_by_outcome_total{outcome="healed"}`] == 0 || counters["engine_reconverged_total"] == 0 {
		t.Errorf("no healed universe booked: %v", counters)
	}
	for name, want := range map[string]float64{
		`engine_faulted_cycles_by_outcome_total{outcome="hang"}`: 687, "engine_faulted_cycles_total": 4112,
		`engine_verdicts_proven_total{proof="wedged"}`: 3, `engine_verdicts_proven_total{proof="recurrent"}`: 1,
	} {
		if got := counters[name]; got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}
}
