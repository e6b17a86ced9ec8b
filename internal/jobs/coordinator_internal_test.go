package jobs

import (
	"strconv"
	"testing"
)

// TestFinishedCampaignOutcomeIsItsSlots: a sharded campaign whose every
// index is folded hands its slots to the outcome as they are — no second
// array — and one the epsilon rule stopped gets the experiments its shards
// folded, compacted and ascending, in an array of its own.
func TestFinishedCampaignOutcomeIsItsSlots(t *testing.T) {
	// complete reports lease's result: the experiments of indices.
	complete := func(c *Coordinator, lease string, indices ...int) {
		t.Helper()
		out := ShardOutput{GoldenCycles: 7, Checkpointed: true, Indices: indices}
		for _, idx := range indices {
			out.Experiments = append(out.Experiments, modelOutcome(idx))
		}
		if err := c.Complete(ShardResult{Lease: lease, Output: out}); err != nil {
			t.Fatal(err)
		}
	}
	leaseAll := func(c *Coordinator) []string {
		t.Helper()
		var ids []string
		for {
			l, ok := c.Lease("w")
			if !ok {
				return ids
			}
			ids = append(ids, l.Lease)
		}
	}
	span := func(lo, hi int) []int {
		var s []int
		for i := lo; i < hi; i++ {
			s = append(s, i)
		}
		return s
	}

	t.Run("complete", func(t *testing.T) {
		c := newCoordinator("whole", Request{Workload: "model"}, 12, 7, true, 3, nil, nil)
		ids := leaseAll(c)
		for _, k := range []int{2, 0, 1} { // out of order
			complete(c, ids[k], span(4*k, 4*k+4)...)
		}
		out, err := c.Wait(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Experiments) != 12 || &out.Experiments[0] != &c.slots[0] {
			t.Fatalf("a complete campaign's outcome has %d experiments in a copy of its slots: want the 12 slots themselves", len(out.Experiments))
		}
		for i, e := range out.Experiments {
			if e != modelOutcome(i) {
				t.Fatalf("experiment %d is %+v, want %+v", i, e, modelOutcome(i))
			}
		}
	})

	t.Run("stopped", func(t *testing.T) {
		c := newCoordinator("stopped", Request{Workload: "model", Epsilon: 0.2}, 60, 7, true, 5, nil, nil)
		ids := leaseAll(c) // five shards of 12
		complete(c, ids[3], span(36, 48)...)
		if !c.Progress(ids[0], 12, 4) {
			t.Fatal("24 experiments, 8 failing, did not stop the campaign at epsilon 0.2")
		}
		// Once stopped, every lease reports back what it finished.
		complete(c, ids[4], 48, 50, 51)
		complete(c, ids[0], span(0, 6)...)
		complete(c, ids[1])
		complete(c, ids[2], 30, 31)
		out, err := c.Wait(t.Context())
		if err != nil {
			t.Fatal(err)
		}
		want := append(append(append(span(0, 6), 30, 31), span(36, 48)...), 48, 50, 51)
		if len(out.Experiments) != len(want) || !out.EarlyStopped || out.Requested != 60 {
			t.Fatalf("stopped campaign: %d experiments, early-stopped %v of %d requested; want %d of 60",
				len(out.Experiments), out.EarlyStopped, out.Requested, len(want))
		}
		if &out.Experiments[0] == &c.slots[0] {
			t.Fatal("a stopped campaign's outcome is its slots, gaps and all")
		}
		for k, e := range out.Experiments {
			if e.Node != strconv.Itoa(want[k]) {
				t.Fatalf("experiment %d is index %s, want %d: not compacted in ascending order", k, e.Node, want[k])
			}
		}
	})
}
