package fault

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestEngineEquivalence is the campaign engine's correctness contract:
// the production engine — ladder forks on pooled cores, lanes over the
// read log, reconvergence drops — must produce Result slices (outcomes,
// latencies, run lengths, hence Pf) bit-identical to the NoCheckpoint
// reference's, across both injection targets and all five fault models,
// with transient instants scheduled over the full experiment list, by
// every path checkEngine walks. The @0 rows repeat the contract at
// injection instant 0 — the default of every campaign surface and the
// instant of every hybrid audit — where rung 0 of the ladder is the reset
// state.
func TestEngineEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		target Target
		opts   Options
	}{
		{"IU", TargetIU, Options{InjectAtFraction: 0.3}}, {"CMEM", TargetCMEM, Options{InjectAtFraction: 0.3}},
		{"IU@0", TargetIU, Options{}}, {"CMEM@0", TargetCMEM, Options{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			prod, ref := enginePair(t, w.Program, tc.opts)
			exps := Expand(SampleNodes(Nodes(tc.target), 6, 7), rtl.AllFaultModels()...)
			// Both runners derive the same window from the same options, so
			// one schedule serves both.
			prod.ScheduleTransients(exps, 21)
			want := ref.Campaign(exps, 3)
			checkEngine(t, prod, exps, want)
			if got := pf(prod.Campaign(exps, 3)); got != pf(want) {
				t.Fatalf("Pf %v != reference %v", got, pf(want))
			}
		})
	}
}

// TestSharedPassEquivalence holds the engine contract on campaigns larger
// than the ones above reach: all five models with scheduled instants over
// a mixed IU+CMEM node sample, so every net recurs later in the list under
// another model (Expand is models-outer) and sa0/sa1/open/set/seu lanes of
// one net are cursors over one log, resolved on more than one worker at 2,
// 3 and 5 (acrossWorkers) — the bytes must not care.
func TestSharedPassEquivalence(t *testing.T) {
	for _, name := range []string{"excerptA", "rspeed"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.Build(name, workloads.Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			prod, ref := enginePair(t, w.Program, Options{InjectAtFraction: 0.3, PulseCycles: 2})
			nodes := append(SampleNodes(Nodes(TargetIU), 56, 13), SampleNodes(Nodes(TargetCMEM), 32, 13)...)
			exps := Expand(nodes, rtl.AllFaultModels()...)
			prod.ScheduleTransients(exps, 13)
			want := ref.Campaign(exps, 0)
			if got := prod.Campaign(exps, 1); !reflect.DeepEqual(got, want) {
				t.Error("1 worker: campaign differs from the from-reset reference")
			}
			for _, workers := range []int{2, 3, 5} {
				if got := acrossWorkers(t, prod, exps, workers); !reflect.DeepEqual(got, want) {
					t.Errorf("%d workers: campaign differs from the from-reset reference", workers)
				}
			}
			if name == "excerptA" {
				// RunOne and the cuts too, where a golden run is short.
				checkEngine(t, prod, exps, want)
			}
		})
	}
}

// netsOf returns the net of each of exps as r's plan makes it a lane, -1
// for one that runs scalar.
func netsOf(r *Runner, exps []Experiment) []int32 {
	m := r.planBatches(exps)
	defer r.putMemo(m)
	return slices.Clone(m.netOf)
}

// activatedLanes reports, per experiment of exps, whether r's plan makes it
// a lane that activates: one whose universe leaves the golden one, so
// that it steps an engine unless its verdict is already known — and a
// transient one always steps.
func activatedLanes(r *Runner, exps []Experiment) []bool {
	m := r.planBatches(exps)
	defer r.putMemo(m)
	act := make([]bool, len(exps))
	for i, n := range m.netOf {
		var l lane
		act[i] = n >= 0 && r.batchLane(&l, &exps[i], m.logs[n])
	}
	return act
}

// acrossWorkers runs exps on r with workers (at least 2) and returns the
// results. The first worker to finish a transient lane that activated — a
// worker that has stepped, so the campaign's other workers are at work —
// while lanes of its net are still unfinished is held in the tap until all
// of those have finished — on other workers, as the held one draws nothing
// meanwhile — so lanes of one net are resolved on more than one worker. The
// test fails if they never finish: a lane queued behind the held one.
func acrossWorkers(t *testing.T, r *Runner, exps []Experiment, workers int) []Result {
	t.Helper()
	netOf, act := netsOf(r, exps), activatedLanes(r, exps)
	left := map[int32]int{} // per net, its lanes not yet finished
	for _, n := range netOf {
		left[n]++
	}
	var mu sync.Mutex
	held := int32(-1) // the held lane's net
	rest := make(chan struct{})
	got, _, err := r.CampaignStopContext(context.Background(), exps, workers, func(i int, _ Result) {
		n := netOf[i]
		mu.Lock()
		left[n]--
		if n >= 0 && held < 0 && act[i] && exps[i].Model.Transient() && left[n] > 0 {
			held = n
			mu.Unlock()
			select {
			case <-rest:
			case <-time.After(time.Minute):
				mu.Lock()
				t.Errorf("%d workers: %d lanes of the held lane's net still unfinished after a minute", workers, left[n])
				mu.Unlock()
			}
			return
		}
		if n >= 0 && n == held && left[n] == 0 {
			close(rest)
		}
		mu.Unlock()
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if held < 0 {
		t.Fatal("no activated transient lane finished before the other lanes of its net")
	}
	return got
}

// enginePair builds the production runner for opts and its NoCheckpoint
// reference, which never shares the production runner's registry. A
// program whose golden run does not exit (a generated one may
// legitimately end in a trap) skips the test.
func enginePair(t *testing.T, p *asm.Program, opts Options) (prod, ref *Runner) {
	t.Helper()
	prod, err := NewRunner(p, opts)
	if err != nil {
		t.Skipf("no golden run: %v", err)
	}
	opts.NoCheckpoint, opts.Obs = true, nil
	ref, err = NewRunner(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	return prod, ref
}

// checkEngine holds the production engine to want — the NoCheckpoint
// reference's results for exps, which builds a fresh core per experiment
// where everything below restores pooled ones — by every path an
// experiment can take: the campaign as planned (full batches), every
// experiment through RunOne (the scalar ladder path upsets on wires take
// inside campaigns too), and the scheduled list cut into 1-, 7- and
// 8-experiment campaigns. The cuts are the shard layer's currency —
// instants were assigned over the full list — and give every lane count
// and batch boundary a turn: concatenated, they must reassemble the
// reference's byte stream however the slicing falls.
func checkEngine(t *testing.T, prod *Runner, exps []Experiment, want []Result) {
	t.Helper()
	check := func(path string, got []Result) {
		t.Helper()
		if reflect.DeepEqual(got, want) {
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: experiment %d (%v %v@%d): got %+v, reference %+v",
					path, i, exps[i].Model, exps[i].Node.Node, exps[i].AtCycle, got[i], want[i])
			}
		}
		t.Fatalf("%s: results differ from the from-reset reference", path)
	}
	check("Campaign", prod.Campaign(exps, 3))
	one := make([]Result, len(exps))
	for i, e := range exps {
		one[i] = prod.RunOne(e)
	}
	check("RunOne", one)
	for _, cut := range []int{1, 7, 8} {
		if cut >= len(exps) {
			continue // the whole list again
		}
		merged := make([]Result, 0, len(exps))
		for lo := 0; lo < len(exps); lo += cut {
			merged = append(merged, prod.Campaign(exps[lo:min(lo+cut, len(exps))], 2)...)
		}
		check(fmt.Sprintf("%d-experiment campaigns", cut), merged)
	}
}

// TestReferenceEngineIsNaive pins what NoCheckpoint selects, since every
// equivalence test above and the repository benchmark's output check
// lean on it being independent of the machinery under test: a campaign
// on it builds no ladder, leaves nothing in the core pool, forks from no
// rung, plans no batch lane and proves no verdict — it steps to every one.
func TestReferenceEngineIsNaive(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, NoCheckpoint: true, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	// Fetch-PC bits: the low ones' stuck-at-0 hangs, open-line twins and
	// upsets and the top one's dead EX gate are what the production engine
	// proves (TestProvenVerdictsEquivalence).
	pc := signalNodes(r, "iu.fe.pc")
	exps := Expand(append(SampleNodes(Nodes(TargetIU), 8, 3), append(pc[2:6], pc[31])...), rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, 3)
	r.PrepareCheckpoint()
	r.Campaign(exps, 3)
	if r.lad != nil {
		t.Error("reference campaign built a golden ladder")
	}
	if e := r.engines.get(); e != nil {
		t.Error("reference campaign kept a core")
	}
	counters := engineCounters(t, reg)
	if got := counters["engine_experiments_total"]; got != float64(len(exps)) {
		t.Errorf("engine_experiments_total = %v, want %d", got, len(exps))
	}
	for _, name := range []string{
		"engine_snapshot_materializations_total", "engine_reconverged_total",
		"engine_batch_lanes_planned_total", "engine_batch_lanes_activated_total",
		"engine_batch_lanes_free_total", "engine_golden_pass_cycles_total",
		`engine_verdicts_proven_total{proof="equivalent"}`, `engine_verdicts_proven_total{proof="recurrent"}`,
		`engine_verdicts_proven_total{proof="shifted"}`, `engine_verdicts_proven_total{proof="wedged"}`,
		`engine_faulted_cycles_by_outcome_total{outcome="healed"}`,
	} {
		if counters[name] != 0 {
			t.Errorf("%s = %v on the reference engine, want 0", name, counters[name])
		}
	}
}

// TestKeptObjectsSurviveCollections holds the runner's free lists to what
// they replaced collector-emptied pools for: engines and the verdict memo
// sit idle between campaigns — through an ISS pass, through
// the caller's own work — and a collection in between must not cost a
// rebuilt design graph. Back-to-back campaigns with two collections in
// between build no second engine per worker, and hand the first campaign's
// objects on.
func TestKeptObjectsSurviveCollections(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	workers := min(2, runtime.GOMAXPROCS(0))
	exps := Expand(SampleNodes(Nodes(TargetIU), 96, 5), rtl.FaultModels()...)
	want := r.Campaign(exps, workers)
	engines := slices.Clone(r.engines.idle)
	memos := slices.Clone(r.memos.idle)
	if len(engines) == 0 || len(memos) != 1 {
		t.Fatalf("after one campaign the runner keeps %d engines, %d memos", len(engines), len(memos))
	}
	for i := 0; i < 3; i++ {
		runtime.GC()
		runtime.GC()
		if got := r.Campaign(exps, workers); !reflect.DeepEqual(got, want) {
			t.Fatalf("campaign %d on kept objects differs from the first", i+2)
		}
	}
	if n := len(r.engines.idle); n > workers {
		t.Errorf("%d engines built for %d workers", n, workers)
	}
	for _, e := range engines {
		if !slices.Contains(r.engines.idle, e) {
			t.Error("an engine of the first campaign was dropped and rebuilt")
		}
	}
	if len(r.memos.idle) != 1 || r.memos.idle[0] != memos[0] {
		t.Error("the verdict memo of the first campaign was dropped and rebuilt")
	}
	// The lists are bounded: what does not fit is left to the collector.
	for i := 0; i < 2*r.engines.max; i++ {
		r.putEngine(&engine{})
	}
	if n := len(r.engines.idle); n != r.engines.max {
		t.Errorf("%d idle engines kept, bound %d", n, r.engines.max)
	}
}

// TestBatchedCampaignRace drives the bit-parallel engine through a
// parallel campaign on eight workers, lanes of one net resolved on more
// than one of them (acrossWorkers) — so `go test -race`
// exercises the concurrent first build of the golden ladder, the one
// logging walk the others wait behind, concurrent cursors over one net's
// log, copy-on-write rung forks and per-lane materialization — and the lane
// demultiplexing stays byte-identical to serial execution. Two mixed
// seu+set+sa1 campaigns then run at once on the same runner: scalar wire
// flips, register and register-file SEU lanes, SET lanes and permanent lanes of
// both share its one ladder and its one read log. The runner's verdict
// table is raced with them: the sa0, sa1 and open-line lanes of a node are
// drawn apart, so a twin looks its forcing up while other workers
// add theirs, and finds it resolved, being resolved by another worker (it
// waits) or new; the serial campaign it is held to runs on a runner of its
// own, or it would find every verdict known. Last, campaigns cancelled at their first completion —
// while the other workers are still resolving or waiting on a twin's
// verdict — return promptly, hand their memo back to the runner, and leave
// the concurrent and the following campaigns that reuse it untouched.
func TestBatchedCampaignRace(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	fresh := func() (*Runner, *obs.Registry) {
		reg := obs.NewRegistry()
		r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, PulseCycles: 2, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		return r, reg
	}
	r, reg := fresh()
	nodes := SampleNodes(Nodes(TargetIU), 160, 11)
	exps := Expand(nodes, rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, 4)
	par := acrossWorkers(t, r, exps, 8)
	twins := proofCounts(t, reg)[provenEquivalent]
	serR, serReg := fresh()
	ser := serR.Campaign(exps, 1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel batched campaign diverged from serial")
	}
	if serial := proofCounts(t, serReg)[provenEquivalent]; twins == 0 || serial != twins {
		t.Fatalf("%v verdicts shared across 8 workers, %v by one worker: want the same, nonzero", twins, serial)
	}

	mixed := Expand(SampleNodes(Nodes(TargetIU), 24, 12), rtl.BitFlip, rtl.SETPulse, rtl.StuckAt1)
	r.ScheduleTransients(mixed, 6)
	want := r.Campaign(mixed, 1)
	var wg sync.WaitGroup
	got := make([][]Result, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = r.Campaign(mixed, 4)
		}()
	}
	wg.Wait()
	for i := range got {
		if !reflect.DeepEqual(got[i], want) {
			t.Errorf("concurrent mixed campaign %d diverged from serial", i)
		}
	}

	for round := 0; round < 4; round++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := r.Campaign(mixed, 4); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d: campaign beside a cancelled one diverged from serial", round)
			}
		}()
		ctx, cancel := context.WithCancel(context.Background())
		part, ran, err := r.CampaignStopContext(ctx, exps, 8, func(int, Result) { cancel() }, nil)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("round %d: cancelled campaign returned %v", round, err)
		}
		done := 0
		for i, ok := range ran {
			if !ok {
				continue
			}
			done++
			if part[i] != ser[i] {
				t.Errorf("round %d: experiment %d completed before the cancel as %+v, serial %+v", round, i, part[i], ser[i])
			}
		}
		if done == 0 || done > 8 {
			t.Errorf("round %d: %d experiments completed, want within one per worker", round, done)
		}
		wg.Wait()
		if got := r.Campaign(exps, 8); !reflect.DeepEqual(got, ser) {
			t.Fatalf("round %d: campaign after a cancelled one diverged from serial", round)
		}
	}
}

// TestPooledCampaignRace drives the pooled engine through a parallel
// campaign with more workers than experiments per slot, so `go test
// -race` exercises concurrent checkout/restore of pooled cores, the
// shared checkpoint and the copy-on-write image forks.
func TestPooledCampaignRace(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	nodes := SampleNodes(Nodes(TargetIU), 16, 11)
	exps := Expand(nodes, rtl.StuckAt1, rtl.StuckAt0)
	par := r.Campaign(exps, 8)
	ser := r.Campaign(exps, 1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel pooled campaign diverged from serial")
	}
}

// TestNodesCachedPerRunner pins the satellite fix: Nodes used to build a
// complete throwaway core on every call; it is now enumerated once per
// process and the same backing slice is handed back.
func TestNodesCachedPerRunner(t *testing.T) {
	for _, target := range []Target{TargetIU, TargetCMEM} {
		a, b := Nodes(target), Nodes(target)
		if len(a) == 0 {
			t.Fatalf("%v: empty enumeration", target)
		}
		if &a[0] != &b[0] {
			t.Errorf("%v: enumeration rebuilt on second call", target)
		}
	}
	if fmt.Sprint(Nodes(TargetIU)[0]) == fmt.Sprint(Nodes(TargetCMEM)[0]) {
		t.Error("IU and CMEM enumerations alias each other")
	}
}
