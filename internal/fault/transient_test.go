package fault

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/difftest"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestExpandOrderGolden locks the enumeration order the shard partition
// and the job service's content addressing depend on: models outer,
// nodes inner, both in caller order. Extending the model list must never
// reorder an existing expansion.
func TestExpandOrderGolden(t *testing.T) {
	na := NodeInfo{Node: rtl.Node{Name: "a", Bit: 0}}
	nb := NodeInfo{Node: rtl.Node{Name: "b", Bit: 1}}
	got := Expand([]NodeInfo{na, nb}, rtl.AllFaultModels()...)
	want := []Experiment{
		{Node: na, Model: rtl.StuckAt0}, {Node: nb, Model: rtl.StuckAt0},
		{Node: na, Model: rtl.StuckAt1}, {Node: nb, Model: rtl.StuckAt1},
		{Node: na, Model: rtl.OpenLine}, {Node: nb, Model: rtl.OpenLine},
		{Node: na, Model: rtl.BitFlip}, {Node: nb, Model: rtl.BitFlip},
		{Node: na, Model: rtl.SETPulse}, {Node: nb, Model: rtl.SETPulse},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Expand order drifted:\n got %v\nwant %v", got, want)
	}
}

// TestScheduleTransientsDeterministic pins the determinism rule of
// sharded transient campaigns: injection cycles are a pure function of
// (seed, absolute experiment index, window), so re-expanding and
// re-scheduling — as every shard worker does — reproduces the identical
// instants, and any slice of the scheduled list carries them unchanged.
func TestScheduleTransientsDeterministic(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	nodes := SampleNodes(Nodes(TargetIU), 8, 3)
	exps := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(exps, 9)

	again := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(again, 9)
	if !reflect.DeepEqual(exps, again) {
		t.Fatal("re-scheduling the same expansion diverged")
	}

	lo, hi := r.opts.InjectAtCycle, r.GoldenCycles
	distinct := map[uint64]bool{}
	for i, e := range exps {
		if e.AtCycle < lo || e.AtCycle >= hi {
			t.Fatalf("experiment %d scheduled at %d outside [%d,%d)", i, e.AtCycle, lo, hi)
		}
		distinct[e.AtCycle] = true
	}
	if len(distinct) < 2 {
		t.Fatal("scheduling collapsed every instant onto one cycle")
	}

	other := Expand(nodes, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(other, 10)
	if reflect.DeepEqual(exps, other) {
		t.Fatal("seed does not influence the schedule")
	}

	// Permanent experiments are never touched.
	perm := Expand(nodes, rtl.StuckAt1)
	r.ScheduleTransients(perm, 9)
	for _, e := range perm {
		if e.AtCycle != 0 {
			t.Fatalf("permanent experiment scheduled at %d", e.AtCycle)
		}
	}
}

// TestTransientEngineEquivalence extends the engine contract to the
// transient models: the production engine must classify a scheduled
// BitFlip/SETPulse campaign bit-identically to the from-reset reference
// by every path checkEngine walks, on both targets (the IU sample is
// mostly register-file words, the CMEM sample all tag and data words: the
// upsets that are lanes over the read log), on a hand-written workload, the
// EEMBC workalikes and constrained-random generated programs (whose
// register, window and memory traffic the workalikes do not reach).
func TestTransientEngineEquivalence(t *testing.T) {
	type program struct {
		name string
		prog *asm.Program
	}
	var programs []program
	for _, name := range []string{"excerptA", "puwmod", "canrdr", "ttsprk", "rspeed"} {
		w, err := workloads.Build(name, workloads.Config{Iterations: 1})
		if err != nil {
			t.Fatal(err)
		}
		programs = append(programs, program{name, w.Program})
	}
	for seed := int64(1); seed <= 5; seed++ {
		p, err := asm.Assemble(difftest.Generate(seed, difftest.AllFeatures(400)), mem.RAMBase)
		if err != nil {
			t.Fatalf("generated program %d: %v", seed, err)
		}
		programs = append(programs, program{fmt.Sprintf("generated-%d", seed), p})
	}
	for _, pr := range programs {
		t.Run(pr.name, func(t *testing.T) {
			prod, ref := enginePair(t, pr.prog, Options{InjectAtFraction: 0.3, PulseCycles: 3})
			for _, target := range []Target{TargetIU, TargetCMEM} {
				exps := Expand(SampleNodes(Nodes(target), 32, 7), rtl.BitFlip, rtl.SETPulse)
				prod.ScheduleTransients(exps, 5)
				want := ref.Campaign(exps, 3)
				t.Logf("%v: %d golden cycles, %d failures", target, prod.GoldenCycles, failures(want))
				checkEngine(t, prod, exps, want)
			}
		})
	}
}

// TestTransientEdgeInstants walks the injection instant across every
// boundary of the golden ladder — exactly on a rung, one cycle either
// side, the last running cycle, past program exit, and before the first
// rung (from-reset fallback) — for both transient models, by every path
// checkEngine walks: nothing panics and every result is byte-identical to
// the from-reset reference.
func TestTransientEdgeInstants(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ladder, reset := enginePair(t, w.Program, Options{InjectAtFraction: 0.4, PulseCycles: 3})
	lad := ladder.ladder()
	if len(lad.rungs) < 3 {
		t.Fatalf("ladder has %d rungs; the workload is too short for the test", len(lad.rungs))
	}
	last := lad.start + uint64(len(lad.rungs)-1)*lad.stride
	end := ladder.GoldenCycles
	instants := []uint64{
		0, lad.start - 1, // before rung 0: from reset
		lad.start, lad.start + 1,
		lad.start + lad.stride - 1, lad.start + lad.stride, lad.start + lad.stride + 1,
		last - 1, last, last + 1,
		end - 2, end - 1, // the last running cycles
		end, end + 1, end + 1000, // the core has exited
	}
	nodes := SampleNodes(Nodes(TargetIU), 6, 5)
	// A register-file word never heals unless overwritten; a pipeline
	// register heals within cycles: cover both ends.
	nodes = append(nodes,
		NodeInfo{Node: rtl.Node{Name: "iu.ex.result", Bit: 3}},
		NodeInfo{Node: rtl.Node{Name: "iu.ctl.exppc", Bit: 4}})
	var exps []Experiment
	for _, m := range rtl.TransientFaultModels() {
		for _, n := range nodes {
			for _, at := range instants {
				exps = append(exps, Experiment{Node: n, Model: m, AtCycle: at})
			}
		}
	}
	exps = append(exps, arrayWordEdges(t, ladder)...)
	checkEngine(t, ladder, exps, reset.Campaign(exps, 0))
}

// arrayWordEdges builds the experiments that sit on the edges of the
// array-word lane rule: a witnessed clean run finds, per array, the first
// cycle past the ladder's start at which some word is only read, only
// written, written then read, and read then written within the cycle, and
// every such (word, cycle) is upset one cycle before, on and one cycle
// after it, and at and past program exit — two SEU lanes on different bits
// of the word, with a SET and a stuck-at-1 lane on the same net riding in
// the same batch.
func arrayWordEdges(t *testing.T, r *Runner) []Experiment {
	t.Helper()
	core, _ := r.freshCore()
	var nets []rtl.WitnessNet
	for _, a := range core.K.Arrays() {
		for i := 0; i < a.Len(); i++ {
			nets = append(nets, rtl.WitnessNet{Name: a.Name(), Word: i})
		}
	}
	w, err := core.K.StartWitness(nets)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Stop()
	type edge struct{ array, kind string }
	found := map[edge]bool{}
	kinds := map[string]int{}
	var exps []Experiment
	var evs []rtl.WitnessEvent
	before := make([]uint64, len(nets))
	for core.Status() == iss.StatusRunning {
		for i := range nets {
			before[i] = w.Sample(i)
		}
		at := core.Cycles()
		core.StepCycle()
		evs = w.Drain(evs[:0])
		for _, ev := range evs {
			i, n, a := int(ev.Net), nets[ev.Net], ev.Acc
			read, kind := a.Ones|a.Zeros != 0, ""
			switch {
			case a.WriteFirst && read:
				kind = "write+read"
			case a.WriteFirst:
				kind = "write"
			case read && w.Sample(i) != before[i]:
				kind = "read+write"
			case read:
				kind = "read"
			}
			if kind == "" || at <= r.InjectCycle() || found[edge{n.Name, kind}] {
				continue
			}
			found[edge{n.Name, kind}] = true
			kinds[kind]++
			node := func(bit int) NodeInfo { return NodeInfo{Node: rtl.Node{Name: n.Name, Word: n.Word, Bit: bit}} }
			for _, c := range []uint64{at - 1, at, at + 1, r.GoldenCycles, r.GoldenCycles + 9} {
				exps = append(exps,
					Experiment{Node: node(0), Model: rtl.BitFlip, AtCycle: c},
					Experiment{Node: node(17), Model: rtl.BitFlip, AtCycle: c},
					Experiment{Node: node(0), Model: rtl.SETPulse, AtCycle: c},
					Experiment{Node: node(0), Model: rtl.StuckAt1})
			}
		}
	}
	t.Logf("array-word edges found: %v (%d experiments)", kinds, len(exps))
	for _, kind := range []string{"read", "write", "write+read", "read+write"} {
		if kinds[kind] == 0 {
			t.Fatalf("no array word is ever accessed %q in a cycle; the workload does not reach that edge", kind)
		}
	}
	return exps
}

// TestLadderBounded pins the ladder's memory bound: however long the
// golden run, a runner pins at most maxRungs rungs, spaced a multiple of
// rungSpacing apart, and a widened ladder still forks byte-identically.
func TestLadderBounded(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	lad := r.ladder()
	span := r.GoldenCycles - lad.start
	if span <= rungSpacing*maxRungs {
		t.Fatalf("golden continuation of %d cycles does not exceed the unwidened ladder", span)
	}
	if len(lad.rungs) > maxRungs || lad.stride%rungSpacing != 0 || lad.stride == rungSpacing {
		t.Fatalf("%d rungs at stride %d over %d cycles", len(lad.rungs), lad.stride, span)
	}
	if top := lad.start + uint64(len(lad.rungs))*lad.stride; top < r.GoldenCycles {
		t.Fatalf("rungs end at %d, short of the golden run's %d cycles", top, r.GoldenCycles)
	}
	ref, err := NewRunner(w.Program, Options{InjectAtFraction: 0.2, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(Nodes(TargetIU), 8, 2), rtl.StuckAt1, rtl.BitFlip, rtl.SETPulse)
	r.ScheduleTransients(exps, 2)
	if got, want := r.Campaign(exps, 0), ref.Campaign(exps, 0); !reflect.DeepEqual(got, want) {
		t.Fatalf("widened ladder diverged from the from-reset reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestPassRecordBounded holds a 480-experiment campaign on a long golden run
// (a 19,632-cycle continuation) byte-identical to the same list cut into
// 64-experiment campaigns and, on a sample, to the from-reset reference.
func TestPassRecordBounded(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 6})
	if err != nil {
		t.Fatal(err)
	}
	r, ref := enginePair(t, w.Program, Options{InjectAtFraction: 0.2, PulseCycles: 2})
	exps := Expand(SampleNodes(Nodes(TargetIU), 120, 4), rtl.StuckAt1, rtl.OpenLine, rtl.SETPulse, rtl.BitFlip)
	r.ScheduleTransients(exps, 4)
	got := r.Campaign(exps, 1)
	var cut []Result
	for lo := 0; lo < len(exps); lo += 64 {
		cut = append(cut, r.Campaign(exps[lo:min(lo+64, len(exps))], 1)...)
	}
	if !reflect.DeepEqual(got, cut) {
		t.Fatal("the campaign diverged from its 64-experiment cuts")
	}
	for i := 0; i < len(exps); i += 19 {
		if want := ref.RunOne(exps[i]); got[i] != want {
			t.Errorf("experiment %d: got %+v, reference %+v", i, got[i], want)
		}
	}
}

// TestReconvergenceWorkCounters states the engine's gain without a
// clock, on two fixed-seed rspeed campaigns over the same 256 nodes; every
// number is a deterministic work counter, pinned.
//
// SEU: an upset is a lane over its net's read log — a register-file or
// cache word, or a register whose clock edges the witness watches — costs
// nothing when its word is replaced (or never touched) before it is read,
// and otherwise forks at that first read and stops at the first rung it
// re-equals, or a few cycles past it when the upset cost a refetch. The 22
// on a wire or on the 64-bit iu.md.acc run scalar from their instant.
//
// Permanent: a quarter of the lanes activate, the open-line ones among
// them are twins of a stuck-at lane and resolve nothing, and hangs whose
// state recurs, or whose EX gate is dead, stop there. Before resolve
// proved verdicts the two campaigns read 75,813 and 706,826 faulted
// cycles, 51 and 34 reconverged, 100 and 214 materializations, on the same
// lanes; with twins, recurrence and shifted heals 71,429 and 492,589. The
// wedged proof took them to 40,165 and 123,253: the one SEU hang (an upset
// expected PC) and 11 of the 13 permanent ones that are not twins — the
// other two recur — were free-running fetches behind a dead EX gate, each
// stepped 34,000 cycles to the budget (31,352 and 387,078 hang cycles,
// then 88 and 17,742).
//
// Part A, operand reads that stop at the bypass supplying the value, moved
// the lane funnel and nothing but it could: 5 SEU and 7 permanent lanes
// whose register-file word was only ever read under a bypass are free (156
// to 161, 575 to 582), one of them a twin, and with them went their forks
// and heals — 39,693 and 109,725 faulted cycles, 53 and 16 reconverged, 95
// and 146 materializations. Part B, a rung every 16 cycles instead of 128,
// moved the cycles: a healed universe is seen at most 16 cycles late and a
// fork replays fewer than 16, so the same lanes cost 31,325 and 99,605;
// the permanent lanes let go and re-forked where they used to run on (152
// reconverged, 281 materializations), and the wedged hangs' forks replay
// less (8 and 17,678 hang cycles). The SEU campaign's forks and heals did
// not move with B: a flip had no later activation to be re-forked at.
//
// It has one since a universe that equals a rung but for its seed bit is
// parked: a lane again, asked of its net's log from the rung on. With the
// register write side 44 of the 66 signal upsets are lanes (190 to 234
// planned), 10 of them free — three bits of the trap base and two of the
// divider's quotient never read again, five of pipeline payload replaced
// before anything sampled them — and 34 activated (29 to 63). Of the parks
// that did not step on, one found its word never touched again and ended
// there (proof "parked") and 234 were re-forked at its next read, more than
// two strides on — which is where the materializations went, 95 to 63 + 22
// + 234 = 319, each a restore and fewer than 16 replayed cycles (2,254 in
// all) — in place of the cycles stepped from a don't-care read to the real
// one: 31,325 faulted cycles to 15,181, 14,079 of them in the 27 universes
// that end in a mismatch. Reconverged counts every drop onto the golden
// trajectory, the 234 teleports and 47 heals.
//
// Since a universe is parked on the logs of whatever few words it differs
// from the rung in (Runner.park), not on its seed bit's alone, four
// register-file upsets teleport 47 times more, 61 times to 108:
// iu.rf.regs[103].1 (0 to 29) once its value was copied into another word and
// the seed word replaced, iu.rf.regs[93].14 (3 to 16) and [77].30 (0 to 1)
// while their word held a value computed from the flip, differing in more
// bits than the seed, and [99].24 (58 to 62); four of the new teleports
// restore two words at once. So 234 teleports became 281 (319
// materializations to 366, 2,254 replayed cycles to 2,583), and 15,181
// faulted cycles 13,501, 12,431 of them (from 14,079) in the universes that
// end in a mismatch. Reconverged is the 281 teleports and the 47 heals.
//
// Since materialize forks the fork point at or below its cycle — one every
// four cycles between rungs, a rung's state plus what the golden run changed
// since — a fork replays at most three clean cycles where it replayed up to
// fifteen. The SEU campaign's 366 materializations replay 535 cycles in all
// (2,583 before: 1.5 a fork against 7.1), and nothing else moves: the same
// forks, heals, parks and teleports, 2,048 fewer faulted cycles (13,501 to
// 11,453; the mismatches' 12,431 to 10,703, the hangs' 8 to 4). The
// permanent campaign's 281 forks replay 403 cycles (1,731 before): 99,605
// faulted cycles to 98,277, the wedged hangs' 17,678 to 17,642.
//
// The golden continuation itself is walked once, at plan time, by a campaign
// that brings a net the runner's read log lacks — GoldenCycles − InjectCycle
// cycles whatever the worker count — and a second campaign on the runner
// steps no golden cycle at all: every net is answered from the log. The
// permanent campaign's lane funnel doubles and nothing else moves: each of
// its 186 activated lanes finds its forcing among the 135 verdicts the
// runner kept. The SEU campaign's funnel doubles too, and so did every other
// counter while an upset, keyed by an instant of its own, was resolved every
// time.
//
// Since a runner keeps its known futures (future.go), an upset universe
// that parks on a rung in a state an earlier call's universe passed through
// takes that universe's ending there. The first campaign's counters do not
// move: its universes see no entry of their own call. In the second, every
// universe that parks in any state at all finds the first one it parks in
// (proof "future", 24 of them): 959 faulted cycles where the first campaign
// stepped 11,453, so 12,412 in all, not 22,906. What is left is the
// universes' forks and the cycles up to their first park, and the ones that
// never park — heals on and off a rung (7 shifted, 3 of them in the second
// campaign, where the first had 4) and the hang proven wedged. The 24 take
// their endings from the table, so their cycles are booked under those:
// the mismatches' 10,703 cycles become 11,094, not 21,406, and the
// no-effects' 40 become 132, the universes that were parked or healed and
// now stop at their first park. One universe the first campaign finalized
// parked is now a known future (parked 1, not 2).
func TestReconvergenceWorkCounters(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		models []rtl.FaultModel
		known  float64 // verdicts a second campaign finds in the runner's table
		want   map[string]float64
		// warm is what the counters read after a second campaign where that
		// is not twice what they read after the first (the funnel runs again)
		// or, with known verdicts, once (nothing is stepped again).
		warm map[string]float64
	}{
		{"seu", []rtl.FaultModel{rtl.BitFlip}, 0, map[string]float64{
			"engine_batch_lanes_planned_total": 234, "engine_batch_lanes_activated_total": 63, "engine_batch_lanes_free_total": 171,
			"engine_faulted_cycles_total": 11453, "engine_reconverged_total": 281 + 47, "engine_snapshot_materializations_total": 63 + 22 + 281,
			"engine_replay_cycles_total":                       535,
			`engine_verdicts_proven_total{proof="equivalent"}`: 0, `engine_verdicts_proven_total{proof="recurrent"}`: 0,
			`engine_verdicts_proven_total{proof="shifted"}`: 4, `engine_verdicts_proven_total{proof="wedged"}`: 1,
			`engine_verdicts_proven_total{proof="parked"}`:           1,
			`engine_faulted_cycles_by_outcome_total{outcome="hang"}`: 4, `engine_faulted_cycles_by_outcome_total{outcome="mismatch"}`: 10703,
		}, map[string]float64{
			"engine_faulted_cycles_total": 11453 + 959, "engine_replay_cycles_total": 648,
			"engine_reconverged_total": 370, "engine_snapshot_materializations_total": 451,
			`engine_verdicts_proven_total{proof="future"}`: 24, `engine_verdicts_proven_total{proof="parked"}`: 1,
			`engine_verdicts_proven_total{proof="shifted"}`:              7,
			`engine_faulted_cycles_by_outcome_total{outcome="mismatch"}`: 11094, `engine_faulted_cycles_by_outcome_total{outcome="no-effect"}`: 132,
			`engine_faulted_cycles_by_outcome_total{outcome="healed"}`: 1060, `engine_faulted_cycles_by_outcome_total{outcome="error-mode"}`: 118,
		}},
		{"permanent", rtl.FaultModels(), 186, map[string]float64{
			"engine_batch_lanes_planned_total": 768, "engine_batch_lanes_activated_total": 186, "engine_batch_lanes_free_total": 582,
			"engine_faulted_cycles_total": 98277, "engine_reconverged_total": 152, "engine_snapshot_materializations_total": 281,
			"engine_replay_cycles_total":                       403,
			`engine_verdicts_proven_total{proof="equivalent"}`: 51, `engine_verdicts_proven_total{proof="recurrent"}`: 2,
			`engine_verdicts_proven_total{proof="shifted"}`: 0, `engine_verdicts_proven_total{proof="wedged"}`: 11,
			`engine_verdicts_proven_total{proof="parked"}`:           0,
			`engine_faulted_cycles_by_outcome_total{outcome="hang"}`: 17642, "engine_verdict_table_entries": 135,
		}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var first map[string]float64
			for workers := 1; workers <= 2; workers++ {
				reg := obs.NewRegistry()
				r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, Obs: reg})
				if err != nil {
					t.Fatal(err)
				}
				exps := Expand(SampleNodes(Nodes(TargetIU), 256, 1), tc.models...)
				r.ScheduleTransients(exps, 1)
				r.Campaign(exps, workers)
				counters := engineCounters(t, reg)
				for name, want := range tc.want {
					if got := counters[name]; got != want {
						t.Errorf("%d workers: %s = %v, want %v", workers, name, got, want)
					}
				}
				if got, want := counters["engine_golden_pass_cycles_total"], float64(r.GoldenCycles-r.InjectCycle()); got != want {
					t.Errorf("%d workers: a cold campaign stepped %v golden cycles, want one walk of %v", workers, got, want)
				}
				nets := counters[`engine_golden_log_nets_total{result="logged"}`]
				if nets == 0 || counters[`engine_golden_log_nets_total{result="hit"}`] != 0 || counters[`engine_golden_log_nets_total{result="scratch"}`] != 0 {
					t.Errorf("%d workers: a cold campaign's nets were not all logged: %v", workers, counters)
				}
				delete(counters, "engine_golden_pass_seconds_total")
				r.Campaign(exps, workers)
				warm := engineCounters(t, reg)
				delete(warm, "engine_golden_pass_seconds_total")
				for name, v := range counters {
					want := 2 * v
					switch {
					case name == "engine_golden_pass_cycles_total" || name == "engine_golden_log_bytes" || name == `engine_golden_log_nets_total{result="logged"}`:
						want = v // nothing walked, nothing logged
					case name == `engine_golden_log_nets_total{result="hit"}`:
						want = nets
					case name == `engine_verdicts_proven_total{proof="known"}`:
						want = tc.known
					case strings.HasPrefix(name, "engine_batch_lanes_") || name == "engine_experiments_total":
						// The funnel runs again.
					case tc.known > 0:
						want = v // nothing stepped, nothing resolved
					}
					if w, ok := tc.warm[name]; ok {
						want = w
					}
					if warm[name] != want {
						t.Errorf("%d workers: %s = %v after a second campaign, want %v", workers, name, warm[name], want)
					}
				}
				if first == nil {
					first = counters
				} else if !reflect.DeepEqual(counters, first) {
					t.Errorf("work counters moved with the worker count:\n 1 worker  %v\n 2 workers %v", first, counters)
				}
			}
		})
	}
}

// engineCounters reads the registry's engine_* and iss_engine_* counters
// off its text exposition.
func engineCounters(t *testing.T, reg *obs.Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(sb.String(), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.HasPrefix(strings.TrimPrefix(name, "iss_"), "engine_") {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[name] = v
	}
	return out
}

// TestSETPulseTemporalDependence mirrors the BitFlip temporal test: a
// glitch on the expected-PC register is catastrophic mid-run and silent
// once the exit store has retired, and the forcing must actually release
// after its window (a permanent fault on the same node also fails, so
// the test distinguishes the pulse only through the late injection).
func TestSETPulseTemporalDependence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	// A 64-cycle pulse: wide enough that the glitched expected PC is
	// guaranteed to be sampled by the control logic inside the window.
	r, err := NewRunner(w.Program, Options{PulseCycles: 64})
	if err != nil {
		t.Fatal(err)
	}
	node := NodeInfo{Node: rtl.Node{Name: "iu.ctl.exppc", Bit: 4}}
	early := r.RunOne(Experiment{Node: node, Model: rtl.SETPulse, AtCycle: 50})
	if !early.Outcome.IsFailure() {
		t.Errorf("early PC glitch did not fail: %v", early.Outcome)
	}
	if early.InjectAt != 50 {
		t.Errorf("InjectAt = %d, want 50", early.InjectAt)
	}
	late := r.RunOne(Experiment{Node: node, Model: rtl.SETPulse, AtCycle: r.GoldenCycles - 1})
	if late.Outcome != OutcomeNoEffect {
		t.Errorf("post-exit glitch propagated: %v", late.Outcome)
	}
}

// TestSETPulseReleasesOnQuasiStaticWire pins the release semantics at
// campaign level: a single-cycle glitch on a wire that is recomputed
// combinationally every cycle can only corrupt the cycles inside its
// window, so it must not out-fail the permanent stuck-at on the same
// sample.
func TestSETPulseWeakerThanPermanent(t *testing.T) {
	r := newRunner(t, "excerptB", workloads.Config{})
	nodes := SampleNodes(Nodes(TargetIU), 48, 11)
	perm := r.Campaign(Expand(nodes, rtl.StuckAt1), 0)
	set := Expand(nodes, rtl.SETPulse)
	r.ScheduleTransients(set, 11)
	trans := r.Campaign(set, 0)
	pfPerm, pfTrans := pf(perm), pf(trans)
	t.Logf("permanent Pf=%.3f set-pulse Pf=%.3f", pfPerm, pfTrans)
	if pfTrans > pfPerm+0.05 {
		t.Errorf("set-pulse Pf %.3f exceeds permanent %.3f", pfTrans, pfPerm)
	}
}
