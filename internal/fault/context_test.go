package fault

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestCampaignContextCancel pins the cancellation contract: cancelling
// mid-campaign stops the worker loops within one dispatch granule —
// already-completed experiments keep their results, the remainder never
// run — and the partial results come back with ctx.Err(). The run is on
// the reference engine, whose granule is a single experiment; the batched
// granule is pinned by TestCampaignStopContext.
func TestCampaignContextCancel(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(r.Nodes(TargetIU), rtl.FaultModels()...)
	if len(exps) < 32 {
		t.Fatalf("want a large experiment set, got %d", len(exps))
	}

	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	results, err := r.CampaignContext(ctx, exps, 2, func(i int, res Result) {
		if ran.Add(1) == 3 {
			cancel()
		}
	})
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
	exps := Expand(SampleNodes(r.Nodes(TargetIU), 6, 3), rtl.StuckAt1)
	var taps atomic.Int64
	got, err := r.CampaignContext(context.Background(), exps, 3, func(i int, res Result) {
		taps.Add(1)
	})
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
// in the bitmap never executed. The scalar reference engine stops within
// one experiment per worker; the batched engine within one 64-lane group
// per worker, however many groups the campaign has.
func TestCampaignStopContext(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.3, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(r.Nodes(TargetIU), rtl.FaultModels()...)
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

	// Under the bit-parallel engine the dispatch granule is one group of
	// up to 64 experiments per worker, so a stop overshoots by at most that
	// much — never by the rest of the campaign.
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
	if completedB < stopAt || completedB > stopAt+2*64 {
		t.Fatalf("batched: %d experiments completed, want within one group per worker of %d", completedB, stopAt)
	}
	if completedB >= len(exps) {
		t.Fatalf("batched campaign ran to completion (%d) despite stop rule", completedB)
	}

	// Unstopped: every experiment runs, bitmap all true, identical to the
	// plain campaign.
	small := Expand(SampleNodes(r.Nodes(TargetIU), 6, 3), rtl.StuckAt1)
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
// engine, to how it hands granules out: every granule exactly once; one
// worker takes them in order on the caller's own goroutine (a shard starts
// none); never more workers than granules; and a stop rule halts each
// worker within the granule it is on, with a nil error.
func TestDispatchDrawsInOrder(t *testing.T) {
	one := func(g int, deliver func(int, Result)) { deliver(g, Result{Cycles: uint64(g)}) }

	var order []int
	before := runtime.NumGoroutine()
	_, ran, err := dispatch(context.Background(), 100, 100, 1, nil, nil, func(g int, deliver func(int, Result)) {
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("granule %d: %d goroutines, %d before the campaign: a one-worker dispatch starts none", g, n, before)
		}
		order = append(order, g) // unsynchronized on purpose: one goroutine
		one(g, deliver)
	})
	if err != nil || len(order) != 100 {
		t.Fatalf("one worker: %d granules, err %v", len(order), err)
	}
	for g := range order {
		if order[g] != g || !ran[g] {
			t.Fatalf("one worker drew granule %d at position %d (ran %v)", order[g], g, ran[g])
		}
	}

	var busy, peak, calls atomic.Int64
	hold := make(chan struct{})
	go func() {
		for calls.Load() < 3 {
			runtime.Gosched()
		}
		close(hold)
	}()
	results, ran, err := dispatch(context.Background(), 3, 3, 16, nil, nil, func(g int, deliver func(int, Result)) {
		calls.Add(1)
		if b := busy.Add(1); b > peak.Load() {
			peak.Store(b)
		}
		<-hold // all three granules are in flight at once: three workers, not one
		busy.Add(-1)
		one(g, deliver)
	})
	if err != nil || peak.Load() != 3 {
		t.Fatalf("16 workers over 3 granules: peak %d at once, err %v; want 3", peak.Load(), err)
	}
	for g := range results {
		if !ran[g] || results[g].Cycles != uint64(g) {
			t.Errorf("granule %d: ran %v, result %+v", g, ran[g], results[g])
		}
	}

	const workers, stopAt = 4, 10
	var done atomic.Int64
	_, ran, err = dispatch(context.Background(), 1000, 1000, workers, nil,
		func(d, _ int) bool { return d >= stopAt }, func(g int, deliver func(int, Result)) {
			done.Add(1)
			one(g, deliver)
		})
	if err != nil {
		t.Fatalf("a stop is a success, got %v", err)
	}
	if n := done.Load(); n < stopAt || n > stopAt+workers {
		t.Errorf("stopped after %d granules, want between %d and %d", n, stopAt, stopAt+workers)
	}
	for g, ok := range ran { // in order: what ran is a prefix, give or take the workers' last draws
		if ok && g >= stopAt+2*workers {
			t.Errorf("granule %d ran after a stop at %d", g, stopAt)
		}
	}
}

// TestStoppedCampaignSamplesInputMix pins what an adaptive stop samples:
// the plan keeps input order — a scalar granule at its experiment's
// position, a lane group where its last lane falls — so a campaign stopped
// early has completed scalar upsets (the few the write side cannot watch:
// wires and the 64-bit iu.md.acc, 22 of these 256) and upset lanes in
// roughly the input's proportion, not one kind first.
func TestStoppedCampaignSamplesInputMix(t *testing.T) {
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exps := Expand(SampleNodes(r.Nodes(TargetIU), 256, 1), rtl.BitFlip)
	r.ScheduleTransients(exps, 1)
	scalar := make([]bool, len(exps))
	scalars := 0
	plan, groups := planned(r, exps)
	at := -1
	for _, it := range plan {
		pos := it.idx
		if it.lanes != nil {
			pos = it.lanes[len(it.lanes)-1]
		} else {
			scalar[it.idx] = true
			scalars++
		}
		if pos <= at {
			t.Fatalf("granule at experiment %d planned after one at %d", pos, at)
		}
		at = pos
	}
	if groups < 3 {
		t.Fatalf("%d groups planned, want at least 3", groups)
	}
	if scalars < 16 || len(exps)-scalars < 2*maxLanes {
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
		// Input share within a factor of two: the stop lands on a group
		// boundary, so the sampled share is not exact.
		if got, want := float64(scalarDone)/float64(done), float64(scalars)/float64(len(exps)); got < want/2 || got > 2*want {
			t.Errorf("%d workers: %d of %d completed experiments are scalar (%.2f), input share %.2f",
				workers, scalarDone, done, got, want)
		}
	}
}

func TestPfInterval(t *testing.T) {
	results := []Result{
		{Outcome: OutcomeMismatch},
		{Outcome: OutcomeNoEffect},
		{Outcome: OutcomeNoEffect},
		{Outcome: OutcomeHang},
	}
	if n := Failures(results); n != 2 {
		t.Fatalf("Failures = %d, want 2", n)
	}
	lo, hi := PfInterval(results, 1.96)
	if !(lo > 0.09 && lo < 0.2) || !(hi > 0.8 && hi < 0.91) {
		t.Errorf("PfInterval = [%v, %v], want roughly [0.15, 0.85]", lo, hi)
	}
	if lo, hi := PfInterval(nil, 1.96); lo != 0 || hi != 1 {
		t.Errorf("empty interval = [%v, %v], want [0, 1]", lo, hi)
	}
}
