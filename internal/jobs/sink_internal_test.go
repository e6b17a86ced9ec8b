package jobs

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"testing"
)

// TestPartialRangesReportWhatRan: a range a cancellation or a stop cut short
// is compacted to exactly the experiments that ran — as many as the tap
// counted, indices ascending inside the range — and each of them is the
// from-reset reference's outcome for that experiment. Covered: a whole
// campaign cancelled mid-run, a shard range cancelled mid-run (both on two
// workers, permanent and transient), and an epsilon-stopped campaign on one
// worker, which reports the input's prefix.
func TestPartialRangesReportWhatRan(t *testing.T) {
	perm := Request{Workload: "rspeed", Iterations: 2, Models: []string{"sa0", "sa1", "open"},
		Nodes: 64, Seed: 11, InjectAtFraction: 0.5}
	transient := Request{Workload: "rspeed", Iterations: 2, Models: []string{"seu", "set"}, PulseCycles: 2,
		Nodes: 64, Seed: 11, InjectAtFraction: 0.5}
	reference := func(req Request) []ExperimentOutcome {
		t.Helper()
		req.NoCheckpoint = true
		out, err := Execute(context.Background(), req, 2, nil)
		if err != nil {
			t.Fatal(err)
		}
		return out.Experiments
	}
	// check holds out to the reference over [start,end), done the tap's
	// last count.
	check := func(t *testing.T, out *ShardOutput, ref []ExperimentOutcome, start, end, done int) {
		t.Helper()
		if len(out.Indices) != len(out.Experiments) || len(out.Experiments) != done {
			t.Fatalf("reported %d indices and %d experiments, the tap counted %d", len(out.Indices), len(out.Experiments), done)
		}
		prev := start - 1
		for k, i := range out.Indices {
			if i <= prev || i >= end {
				t.Fatalf("index %d after %d, range [%d,%d)", i, prev, start, end)
			}
			prev = i
			if !reflect.DeepEqual(out.Experiments[k], ref[i]) {
				t.Fatalf("experiment %d: %+v, the reference %+v", i, out.Experiments[k], ref[i])
			}
		}
	}
	for _, req := range []Request{perm, transient} {
		ref := reference(req)
		for _, rng := range [][2]int{{0, wholeCampaign}, {30, 110}} {
			ctx, cancel := context.WithCancel(context.Background())
			done := 0
			run, err := runRange(ctx, req, rng[0], rng[1], rangeEnv{workers: 2, tap: func(d, _, _ int) {
				if done = d; d == 20 {
					cancel()
				}
			}})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%v range %v: err %v, want context.Canceled", req.Models, rng, err)
			}
			end := rng[1]
			if end == wholeCampaign {
				end = len(ref)
			}
			if done >= end-rng[0] {
				t.Fatalf("%v range %v: the cancel landed after all %d experiments", req.Models, rng, done)
			}
			check(t, run.out, ref, rng[0], end, done)
		}
	}

	stopped := perm
	stopped.Nodes, stopped.Epsilon = 256, 0.05
	done := 0
	run, err := runRange(context.Background(), stopped, 0, wholeCampaign, rangeEnv{workers: 1, tap: func(d, _, _ int) { done = d }})
	if err != nil {
		t.Fatal(err)
	}
	if !run.outcome.EarlyStopped {
		t.Fatalf("epsilon %v: ran all %d experiments", stopped.Epsilon, run.outcome.Injections)
	}
	for k, i := range run.out.Indices {
		if i != k {
			t.Fatalf("one worker stopped: reported index %d at position %d, want the input's prefix", i, k)
		}
	}
	stopped.NoCheckpoint = true
	refStop, err := Execute(context.Background(), stopped, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	check(t, run.out, refStop.Experiments, 0, len(refStop.Experiments), done)
}

// TestReusedExpansionLeavesOutcomesAlone: a campaign's outcome holds nothing
// of the experiment list it expanded into, which the next campaign expands
// into again: a transient campaign's encoding — its instants above all —
// is the same after an overlapping campaign has reused the list.
func TestReusedExpansionLeavesOutcomesAlone(t *testing.T) {
	for len(expansions) > 0 { // a list of this test's own below
		expansions.take()
	}
	req := Request{Workload: "rspeed", Iterations: 2, Models: []string{"seu", "set"}, PulseCycles: 2,
		Nodes: 96, Seed: 21, InjectAtFraction: 0.5}
	first, err := Execute(context.Background(), req, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := encodeOutcome(first)
	if err != nil {
		t.Fatal(err)
	}
	if len(expansions) != 1 {
		t.Fatalf("%d expansions kept after one campaign, want its own", len(expansions))
	}
	next := req
	next.Seed = 22
	if _, err := Execute(context.Background(), next, 2, nil); err != nil {
		t.Fatal(err)
	}
	after, err := encodeOutcome(first)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a campaign's outcome changed when the next campaign reused its expansion")
	}
}
