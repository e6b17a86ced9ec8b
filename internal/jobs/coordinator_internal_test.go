package jobs

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/stats"
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

// TestTallyFoldExact pins the merge semantics the shard layer relies on:
// folding any partition of per-experiment tallies reproduces the global
// tally exactly, independent of fold order.
func TestTallyFoldExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		outcomes := make([]bool, n) // true = failure
		want := progressTally{}
		for i := range outcomes {
			outcomes[i] = rng.Intn(3) == 0
			want.Done++
			if outcomes[i] {
				want.Failures++
			}
		}
		// Random partition into contiguous shards, folded in random order.
		var shards []progressTally
		for start := 0; start < n; {
			end := start + 1 + rng.Intn(n-start)
			sh := progressTally{}
			for i := start; i < end; i++ {
				sh.Done++
				if outcomes[i] {
					sh.Failures++
				}
			}
			shards = append(shards, sh)
			start = end
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		got := progressTally{}
		for _, sh := range shards {
			got.Add(sh)
		}
		if got != want {
			t.Fatalf("trial %d: folded %+v, want %+v", trial, got, want)
		}
	}
}

// TestTallyEstimateDistinguishesNoData pins the progressive-progress
// contract: a record with Done==0 reports Pf 0 with the vacuous (0,1)
// Wilson interval, while a genuine zero-failure estimate reports Pf 0
// with an interval that tightens around 0 — so NDJSON consumers can tell
// "no data yet" from "no failures observed".
func TestTallyEstimateDistinguishesNoData(t *testing.T) {
	pf, lo, hi := progressTally{}.Estimate(stats.Z95)
	if pf != 0 || lo != 0 || hi != 1 {
		t.Fatalf("empty tally estimate = (%v, %v, %v), want (0, 0, 1)", pf, lo, hi)
	}
	pf, lo, hi = progressTally{Done: 200}.Estimate(stats.Z95)
	if pf != 0 || lo != 0 {
		t.Fatalf("zero-failure estimate = (%v, %v, %v), want pf=lo=0", pf, lo, hi)
	}
	if hi >= 0.5 {
		t.Fatalf("200 clean experiments still report hi=%v; indistinguishable from no data", hi)
	}
	if _, _, vacuous := (progressTally{}).Estimate(stats.Z95); vacuous == hi {
		t.Fatal("no-data and zero-failure estimates are indistinguishable")
	}
}

func TestTallyStats(t *testing.T) {
	tl := progressTally{Done: 100, Failures: 25}
	pf, lo, hi := tl.Estimate(stats.Z95)
	if pf != 0.25 {
		t.Errorf("Pf = %v, want 0.25", pf)
	}
	wlo, whi := stats.WilsonCI(25, 100, stats.Z95)
	if lo != wlo || hi != whi {
		t.Errorf("Interval = [%v, %v], want [%v, %v]", lo, hi, wlo, whi)
	}
	if hw := stats.HalfWidth(25, 100, stats.Z95); hw != (whi-wlo)/2 {
		t.Errorf("HalfWidth = %v, want %v", hw, (whi-wlo)/2)
	}
	if pf, _, _ := (progressTally{}).Estimate(stats.Z95); pf != 0 {
		t.Error("empty tally Pf != 0")
	}
}

func TestTallyConverged(t *testing.T) {
	tl := progressTally{Done: 400, Failures: 100}
	hw := stats.HalfWidth(tl.Failures, tl.Done, stats.Z95) // ~0.042
	if !tl.Converged(hw+0.001, stats.Z95) {
		t.Error("tally should converge at epsilon above its half-width")
	}
	if tl.Converged(hw-0.001, stats.Z95) {
		t.Error("tally converged at epsilon below its half-width")
	}
	// epsilon <= 0 disables the rule, and an empty tally never converges
	// (its vacuous interval would otherwise stop at huge epsilon).
	if tl.Converged(0, stats.Z95) {
		t.Error("epsilon 0 must disable the stop rule")
	}
	if (progressTally{}).Converged(0.6, stats.Z95) {
		t.Error("empty tally must not converge")
	}
}
