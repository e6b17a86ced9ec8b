package fault

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestCampaignContextCancel pins the cancellation contract: cancelling
// mid-campaign stops the worker loops within one dispatch granule — one
// experiment — already-completed experiments keep their results, the
// remainder never run — and the partial results come back with ctx.Err().
// The run is on the reference engine; TestCampaignStopContext stops the
// batched one too.
func TestCampaignContextCancel(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(Nodes(TargetIU), rtl.FaultModels()...)
	if len(exps) < 32 {
		t.Fatalf("want a large experiment set, got %d", len(exps))
	}

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	results, _, err := r.CampaignStopContext(ctx, exps, 2, func(i int, res Result) {
		if ran.Add(1) == 3 {
			cancel()
		}
	}, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(results) != len(exps) {
		t.Fatalf("results length %d != %d", len(results), len(exps))
	}
	completed := int(ran.Load())
	if completed >= len(exps) {
		t.Fatalf("campaign ran to completion (%d experiments) despite cancellation", completed)
	}
	// Workers finish at most the experiment they were on: with 2 workers
	// and cancellation after the 3rd completion, only a handful complete.
	if completed > 8 {
		t.Errorf("%d experiments completed after cancel; want within one granule per worker", completed)
	}
}

// TestCampaignContextComplete checks the ctx path is a no-op for
// uncancelled campaigns: identical results to Campaign, nil error, and
// the tap sees every experiment exactly once.
func TestCampaignContextComplete(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(Nodes(TargetIU), 6, 3), rtl.StuckAt1)
	var taps atomic.Int64
	got, _, err := r.CampaignStopContext(context.Background(), exps, 3, func(i int, res Result) {
		taps.Add(1)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if int(taps.Load()) != len(exps) {
		t.Errorf("tap saw %d completions, want %d", taps.Load(), len(exps))
	}
	want := r.Campaign(exps, 3)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("experiment %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestCampaignStopContext pins the stop-rule contract behind adaptive
// early stopping: the rule sees monotonically growing completion counts,
// halting via it is a success (nil error) with a ran bitmap marking
// exactly the completed prefix set, and experiments whose slot is unset
// in the bitmap never executed. Both engines stop within one experiment
// per worker, the batched one however many lanes the campaign has.
func TestCampaignStopContext(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(Nodes(TargetIU), rtl.FaultModels()...)
	if len(exps) < 32 {
		t.Fatalf("want a large experiment set, got %d", len(exps))
	}

	const stopAt = 5
	results, ran, err := r.CampaignStopContext(context.Background(), exps, 2, nil,
		func(done, failures int) bool { return done >= stopAt })
	if err != nil {
		t.Fatalf("stop-rule halt returned %v, want nil", err)
	}
	completed := 0
	for i, ok := range ran {
		if ok {
			completed++
		} else if results[i] != (Result{}) {
			t.Fatalf("experiment %d has a result but ran=false", i)
		}
	}
	if completed < stopAt || completed > stopAt+2 {
		t.Fatalf("%d experiments completed, want within one granule of %d", completed, stopAt)
	}

	// The bit-parallel engine's granule is one experiment too: a lane.
	rb, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	_, ranB, err := rb.CampaignStopContext(context.Background(), exps, 2, nil,
		func(done, failures int) bool { return done >= stopAt })
	if err != nil {
		t.Fatalf("batched stop-rule halt returned %v, want nil", err)
	}
	completedB := 0
	for _, ok := range ranB {
		if ok {
			completedB++
		}
	}
	if completedB < stopAt || completedB > stopAt+2 {
		t.Fatalf("batched: %d experiments completed, want within one per worker of %d", completedB, stopAt)
	}

	// Unstopped: every experiment runs, bitmap all true, identical to the
	// plain campaign.
	small := Expand(SampleNodes(Nodes(TargetIU), 6, 3), rtl.StuckAt1)
	got, ran2, err := r.CampaignStopContext(context.Background(), small, 3, nil,
		func(done, failures int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	for i, ok := range ran2 {
		if !ok {
			t.Fatalf("experiment %d never ran in unstopped campaign", i)
		}
		want := r.Campaign(small, 1)
		if got[i] != want[i] {
			t.Fatalf("experiment %d diverged: %+v vs %+v", i, got[i], want[i])
		}
	}

	// External cancellation still reports ctx.Err, not a silent success.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := r.CampaignStopContext(ctx, small, 2, nil,
		func(done, failures int) bool { return false }); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled campaign returned %v, want context.Canceled", err)
	}
}

// TestDispatchDrawsInOrder holds the campaign loop itself, without an
// engine, to how it hands experiments out: every one exactly once, to the
// sink with its own index; one worker takes them in order on the caller's
// own goroutine (a shard starts none); never more workers than experiments,
// all of them at work once an experiment asks for an engine; and a stop
// rule halts each worker within the experiment it is on, with a nil error.
func TestDispatchDrawsInOrder(t *testing.T) {
	one := func(i int, res *Result) { res.Cycles = uint64(i) }
	// into is a sink that files each result by index, as collect does.
	into := func(n int) ([]Result, []bool, func(int, *Result)) {
		results, ran := make([]Result, n), make([]bool, n)
		return results, ran, func(i int, res *Result) { results[i], ran[i] = *res, true }
	}

	var order []int
	before := runtime.NumGoroutine()
	_, ran, sink := into(100)
	err := dispatch(context.Background(), 100, 1, nil, func(i int, res *Result, c *crew) {
		c.wake()
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("experiment %d: %d goroutines, %d before the campaign: a one-worker dispatch starts none", i, n, before)
		}
		order = append(order, i) // unsynchronized on purpose: one goroutine
		one(i, res)
	}, sink)
	if err != nil || len(order) != 100 {
		t.Fatalf("one worker: %d experiments, err %v", len(order), err)
	}
	for i := range order {
		if order[i] != i || !ran[i] {
			t.Fatalf("one worker drew experiment %d at position %d (ran %v)", order[i], i, ran[i])
		}
	}

	// The first experiment asks for an engine, which starts the other
	// workers; each holds until all three experiments are in flight at once
	// — three workers, not one — or, if they never are, a few seconds.
	var busy, peak, calls atomic.Int64
	hold := make(chan struct{})
	go func() {
		for deadline := time.Now().Add(5 * time.Second); calls.Load() < 3 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		close(hold)
	}()
	results, ran, sink := into(3)
	err = dispatch(context.Background(), 3, 16, nil, func(i int, res *Result, c *crew) {
		c.wake()
		calls.Add(1)
		if b := busy.Add(1); b > peak.Load() {
			peak.Store(b)
		}
		<-hold
		busy.Add(-1)
		one(i, res)
	}, sink)
	if err != nil || peak.Load() != 3 {
		t.Fatalf("16 workers over 3 experiments: peak %d at once, err %v; want 3", peak.Load(), err)
	}
	for i := range results {
		if !ran[i] || results[i].Cycles != uint64(i) {
			t.Errorf("experiment %d: ran %v, result %+v", i, ran[i], results[i])
		}
	}

	const workers, stopAt = 4, 10
	var done atomic.Int64
	_, ran, sink = into(1000)
	err = dispatch(context.Background(), 1000, workers,
		func(d, _ int) bool { return d >= stopAt }, func(i int, res *Result, c *crew) {
			c.wake()
			done.Add(1)
			one(i, res)
		}, sink)
	if err != nil {
		t.Fatalf("a stop is a success, got %v", err)
	}
	if n := done.Load(); n < stopAt || n > stopAt+workers {
		t.Errorf("stopped after %d experiments, want between %d and %d", n, stopAt, stopAt+workers)
	}
	for i, ok := range ran { // in order: what ran is a prefix, give or take the workers' last draws
		if ok && i >= stopAt+2*workers {
			t.Errorf("experiment %d ran after a stop at %d", i, stopAt)
		}
	}
}

// TestWarmCampaignStartsNoGoroutine holds the other half of dispatch's
// contract: workers beyond the caller start only once an experiment takes
// an engine, so a many-worker campaign whose every experiment is a known
// verdict or a free lane runs on the caller alone and starts no goroutine.
// It is checked on a warm RTL sample — a permanent-model campaign run
// again on the runner whose verdict table its first run filled — and on
// the ISS pass of the same experiments, warmed alike.
func TestWarmCampaignStartsNoGoroutine(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{InjectAtFraction: 0.3}
	r, err := NewRunner(w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := NewISSRunner(w.Program, opts, r.GoldenCycles, r.InjectCycle())
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(Nodes(TargetIU), 48, 5), rtl.FaultModels()...)
	for _, c := range []struct {
		name string
		eng  testEngine
	}{{"rtl", r}, {"iss", ir}} {
		cold, _, err := c.eng.CampaignStopContext(context.Background(), exps, 4, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		most := 0
		warm := make([]Result, len(exps))
		if err := c.eng.CampaignSink(context.Background(), exps, 4, func(i int, res *Result) {
			most = max(most, runtime.NumGoroutine()) // unsynchronized on purpose: one goroutine
			warm[i] = *res
		}, nil); err != nil {
			t.Fatal(err)
		}
		if most > before {
			t.Errorf("%s: a warm 4-worker campaign ran with %d goroutines, %d before it: want none started", c.name, most, before)
		}
		if !reflect.DeepEqual(warm, cold) {
			t.Errorf("%s: the warm campaign differs from the cold one", c.name)
		}
	}
}

// TestNoExperimentWaitsBehindABusyWorker holds the dispatch granule to one
// experiment: a worker held in the tap at the campaign's first completion
// of an activated lane — one that has stepped, or copied the verdict of one
// that has, so every worker is at work — keeps no other experiment from
// finishing: the other worker runs them all. A granule of several lanes
// would leave the rest of the held worker's granule unfinished until it is
// released, and the test would time out.
func TestNoExperimentWaitsBehindABusyWorker(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(Nodes(TargetIU), 64, 2), rtl.FaultModels()...)
	act := activatedLanes(r, exps)
	var first atomic.Bool
	var others atomic.Int64
	rest := make(chan struct{})
	_, ran, err := r.CampaignStopContext(context.Background(), exps, 2, func(i int, _ Result) {
		if act[i] && first.CompareAndSwap(false, true) {
			select {
			case <-rest:
			case <-time.After(time.Minute):
				t.Errorf("%d of the other %d experiments finished while the first activated lane's worker was held", others.Load(), len(exps)-1)
			}
			return
		}
		if others.Add(1) == int64(len(exps)-1) {
			close(rest)
		}
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Load() {
		t.Fatal("no lane activated")
	}
	for i, ok := range ran {
		if !ok {
			t.Fatalf("experiment %d never ran", i)
		}
	}
	if lanes := engineCounters(t, reg)["engine_batch_lanes_planned_total"]; lanes < 128 {
		t.Fatalf("%v lanes planned, want at least 128", lanes)
	}
}

// TestStoppedCampaignSamplesInputMix pins what an adaptive stop samples:
// experiments are drawn in input order, a lane and a scalar one alike, so a
// campaign stopped early has completed scalar upsets (the few the write
// side cannot watch: wires and the 64-bit iu.md.acc, 22 of these 256) and
// upset lanes in roughly the input's proportion, not one kind first.
func TestStoppedCampaignSamplesInputMix(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(Nodes(TargetIU), 256, 1), rtl.BitFlip)
	r.ScheduleTransients(exps, 1)
	scalar := make([]bool, len(exps))
	scalars := 0
	for i, n := range netsOf(r, exps) {
		if n < 0 {
			scalar[i] = true
			scalars++
		}
	}
	if scalars < 16 || len(exps)-scalars < 128 {
		t.Fatalf("%d scalar of %d experiments: the campaign is not mixed", scalars, len(exps))
	}
	for _, workers := range []int{1, 2} {
		_, ran, err := r.CampaignStopContext(context.Background(), exps, workers, nil,
			func(done, failures int) bool { return done >= 100 })
		if err != nil {
			t.Fatal(err)
		}
		done, scalarDone := 0, 0
		for i, ok := range ran {
			if ok {
				done++
				if scalar[i] {
					scalarDone++
				}
			}
		}
		if done >= len(exps) {
			t.Fatalf("%d workers: the campaign ran to completion despite the stop rule", workers)
		}
		// Input share within a factor of two: the completed prefix is short,
		// so the sampled share is not exact.
		if got, want := float64(scalarDone)/float64(done), float64(scalars)/float64(len(exps)); got < want/2 || got > 2*want {
			t.Errorf("%d workers: %d of %d completed experiments are scalar (%.2f), input share %.2f",
				workers, scalarDone, done, got, want)
		}
	}
}

// TestTapOnlyCampaignTapsEachIndexOnce: a campaign with a tap and no stop
// rule, on four workers, taps every experiment exactly once with its own
// index and the result it returns at that index, on both engines. Without a
// stop rule the workers share no tally, so under -race this also holds that
// the tap, which runs on the workers, needs no lock of the loop's.
func TestTapOnlyCampaignTapsEachIndexOnce(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{InjectAtFraction: 0.3, PulseCycles: 2}
	r, err := NewRunner(w.Program, opts)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := NewISSRunner(w.Program, opts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, eng := range []testEngine{r, ir} {
		exps := Expand(SampleNodes(Nodes(TargetIU), 64, 5), rtl.FaultModels()...)
		eng.ScheduleTransients(exps, 5)
		taps := make([]atomic.Int32, len(exps))
		tapped := make([]Result, len(exps))
		results, ran, err := eng.CampaignStopContext(context.Background(), exps, 4, func(i int, res Result) {
			taps[i].Add(1)
			tapped[i] = res // each index's own slot: written by the one worker that ran it
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range exps {
			if n := taps[i].Load(); n != 1 || !ran[i] || tapped[i] != results[i] {
				t.Fatalf("%T experiment %d: tapped %d times, ran %v, tapped %+v, returned %+v", eng, i, n, ran[i], tapped[i], results[i])
			}
		}
	}
}
