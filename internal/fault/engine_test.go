package fault

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro/internal/rtl"
	"repro/internal/workloads"
)

// TestEngineEquivalence is the campaign engines' correctness contract:
// every engine combination — pooled or fork-per-experiment, checkpointed
// or from-reset, scalar or bit-parallel at any lane count — must produce
// bit-identical Result slices (outcomes, latencies, run lengths, hence
// Pf) across both injection targets and all five fault models, with
// transient instants scheduled over the full experiment list. The scalar
// pooled checkpointed engine is the reference; the batched variants pin
// DESIGN.md §10's claim that lane-masked execution is an optimization,
// not an approximation. The @0 rows repeat the contract at injection
// instant 0 — the default of every campaign surface and the instant of
// every hybrid audit — where rung 0 of the ladder is the reset state and
// the reference is the NoCheckpoint engine.
func TestEngineEquivalence(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	type engine struct {
		name string
		opts Options
	}
	midRun := []engine{
		{"scalar-pooled-checkpointed", Options{InjectAtFraction: 0.3, NoBatch: true}},
		{"batched-64", Options{InjectAtFraction: 0.3}},
		{"batched-8", Options{InjectAtFraction: 0.3, BatchLanes: 8}},
		{"batched-1", Options{InjectAtFraction: 0.3, BatchLanes: 1}},
		{"batched-fork-per-experiment", Options{InjectAtFraction: 0.3, NoPool: true}},
		{"pooled-from-reset", Options{InjectAtFraction: 0.3, NoCheckpoint: true}},
		{"unpooled-from-reset", Options{InjectAtFraction: 0.3, NoCheckpoint: true, NoPool: true}},
	}
	atReset := []engine{
		{"pooled-from-reset", Options{NoCheckpoint: true}},
		{"batched-64", Options{}},
		{"batched-8", Options{BatchLanes: 8}},
		{"batched-1", Options{BatchLanes: 1}},
		{"scalar-ladder", Options{NoBatch: true}},
	}
	for _, tc := range []struct {
		name    string
		target  Target
		engines []engine
	}{
		{"IU", TargetIU, midRun}, {"CMEM", TargetCMEM, midRun},
		{"IU@0", TargetIU, atReset}, {"CMEM@0", TargetCMEM, atReset},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var ref []Result
			var batched *Runner
			var scheduled []Experiment
			for _, eng := range tc.engines {
				r, err := NewRunner(w.Program, eng.opts)
				if err != nil {
					t.Fatal(err)
				}
				nodes := SampleNodes(r.Nodes(tc.target), 6, 7)
				exps := Expand(nodes, rtl.AllFaultModels()...)
				// Same options-derived window and seed in every runner, so
				// each engine sees identical transient instants.
				r.ScheduleTransients(exps, 21)
				results := r.Campaign(exps, 3)
				if ref == nil {
					ref = results
					continue
				}
				if eng.name == "batched-64" {
					batched, scheduled = r, exps
				}
				if !reflect.DeepEqual(ref, results) {
					for i := range ref {
						if !reflect.DeepEqual(ref[i], results[i]) {
							t.Errorf("%s: experiment %d (%v %v) diverged: %+v vs %+v",
								eng.name, i, exps[i].Node.Node, exps[i].Model, ref[i], results[i])
						}
					}
					t.Fatalf("%s: results differ from %s", eng.name, tc.engines[0].name)
				}
				if got, want := Pf(results), Pf(ref); got != want {
					t.Fatalf("%s: Pf %v != %v", eng.name, got, want)
				}
			}

			// Sharded batched execution: running contiguous slices of the
			// scheduled list as separate campaigns (the shard layer's
			// currency — instants were assigned over the full list) and
			// concatenating must reassemble the unsharded byte stream, no
			// matter how the slicing interacts with batch boundaries.
			var merged []Result
			for lo := 0; lo < len(scheduled); {
				hi := lo + 7
				if hi > len(scheduled) {
					hi = len(scheduled)
				}
				merged = append(merged, batched.Campaign(scheduled[lo:hi], 2)...)
				lo = hi
			}
			if !reflect.DeepEqual(merged, ref) {
				t.Fatal("sharded batched campaign diverged from unsharded results")
			}
		})
	}
}

// TestBatchedCampaignRace drives the bit-parallel engine through a
// parallel campaign with multiple concurrent batches, so `go test -race`
// exercises the concurrent first build of the golden ladder, witness
// arming on pooled cores, copy-on-write rung forks and per-lane
// materialization — and the lane demultiplexing stays byte-identical to
// serial execution. Two mixed seu+set+sa1 campaigns then run at once on
// the same runner: scalar signal flips, register-file SEU lanes, SET
// lanes and permanent lanes of both share its one ladder, and the three
// lane kinds share witnessed passes.
func TestBatchedCampaignRace(t *testing.T) {
	w, err := workloads.Build("excerptB", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{InjectAtFraction: 0.5, BatchLanes: 8, PulseCycles: 2})
	if err != nil {
		t.Fatal(err)
	}
	nodes := SampleNodes(r.Nodes(TargetIU), 12, 11)
	exps := Expand(nodes, rtl.AllFaultModels()...)
	r.ScheduleTransients(exps, 4)
	par := r.Campaign(exps, 8)
	ser := r.Campaign(exps, 1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel batched campaign diverged from serial")
	}

	mixed := Expand(SampleNodes(r.Nodes(TargetIU), 24, 12), rtl.BitFlip, rtl.SETPulse, rtl.StuckAt1)
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
	nodes := SampleNodes(r.Nodes(TargetIU), 16, 11)
	exps := Expand(nodes, rtl.StuckAt1, rtl.StuckAt0)
	par := r.Campaign(exps, 8)
	ser := r.Campaign(exps, 1)
	if !reflect.DeepEqual(par, ser) {
		t.Fatal("parallel pooled campaign diverged from serial")
	}
}

// TestNodesCachedPerRunner pins the satellite fix: Nodes used to build a
// complete throwaway core on every call; it is now enumerated once per
// runner and the same backing slice is handed back.
func TestNodesCachedPerRunner(t *testing.T) {
	w, err := workloads.Build("excerptA", workloads.Config{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(w.Program, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []Target{TargetIU, TargetCMEM} {
		a, b := r.Nodes(target), r.Nodes(target)
		if len(a) == 0 {
			t.Fatalf("%v: empty enumeration", target)
		}
		if &a[0] != &b[0] {
			t.Errorf("%v: enumeration rebuilt on second call", target)
		}
	}
	if fmt.Sprint(r.Nodes(TargetIU)[0]) == fmt.Sprint(r.Nodes(TargetCMEM)[0]) {
		t.Error("IU and CMEM enumerations alias each other")
	}
}
