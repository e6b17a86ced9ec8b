package jobs

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"repro/internal/fault"
)

// warmRequest is the repository benchmark's engine_perm shape: 256 sampled
// IU nodes under the three permanent models, 768 experiments.
var warmRequest = Request{Workload: "rspeed", Iterations: 2, Models: []string{"sa0", "sa1", "open"},
	Nodes: 256, Seed: 999, InjectAtFraction: 0.5}

// TestHandBuiltNodesEncodeIdentically: a campaign whose experiments carry
// hand-built nodes — no name printed at enumeration — encodes byte for byte
// as the one expanded from the runner's population, permanent and transient
// experiments alike.
func TestHandBuiltNodesEncodeIdentically(t *testing.T) {
	ctx := context.Background()
	req := Request{Workload: "rspeed", Iterations: 1, Models: []string{"sa1", "open", "seu", "set"}, Nodes: 48, Seed: 3,
		PulseCycles: 2, InjectAtFraction: 0.3}
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engineFor(ctx, n, nil)
	if err != nil {
		t.Fatal(err)
	}
	exps := experimentsFor(nil, eng, n)
	hand := make([]fault.Experiment, len(exps))
	for i, e := range exps {
		hand[i] = e
		hand[i].Node = fault.NodeInfo{Node: e.Node.Node, Unit: e.Node.Unit}
	}
	encode := func(exps []fault.Experiment) []byte {
		run, err := runRange(ctx, req, 0, wholeCampaign, rangeEnv{workers: 2, exps: exps})
		if err != nil {
			t.Fatal(err)
		}
		b, err := encodeOutcome(run.outcome)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if printed, built := encode(exps), encode(hand); !bytes.Equal(printed, built) {
		t.Error("hand-built nodes encode differently from the enumerated ones")
	}
}

// TestWarmCampaignAllocations: a campaign on a warm runner — every net
// logged, every forcing resolved — allocates a constant number of times, not
// one per experiment: names are printed once per runner, the sample is
// drawn without a permutation and nothing is counted for nobody. Measured
// at 768 and 384 experiments, the difference is well under one allocation
// per 64 experiments.
func TestWarmCampaignAllocations(t *testing.T) {
	allocs := func(req Request) float64 {
		for range 2 { // warm the runner's log and verdict table
			if _, err := Execute(context.Background(), req, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Execute(context.Background(), req, 1, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	half := warmRequest
	half.Nodes /= 2
	full, small := allocs(warmRequest), allocs(half)
	t.Logf("a warm campaign allocates %.0f times over 768 experiments, %.0f over 384", full, small)
	if full > small+384/64 || full > 768/8 {
		t.Errorf("a warm campaign allocates %.0f times over 768 experiments and %.0f over 384: want a constant per campaign", full, small)
	}
}

// TestWarmCampaignBytes bounds what TestWarmCampaignAllocations counts by
// size: a warm campaign allocates its outcome's experiments array and a
// constant beside it — the tally's maps, a shard pool's own state — and no
// other array per experiment: no node sample, no experiment list, no raw
// result array, no index list, no shard's output, no hybrid plan. A whole
// engine_perm campaign allocates at most its experiments array plus
// permSlack bytes, less than its node sample's 16 KiB; an in-process
// 4-shard one, and a whole hybrid one — its ISS pass, audit and class
// scores included — at most the array plus warmSlack; each allocates at
// most twice what a half-size one does plus warmSlack. The hybrid shape
// runs twice, on the plan cache as the last campaign left it and emptied
// before each call: a whole campaign builds its plan over recycled arrays
// either way and never reads the cache.
func TestWarmCampaignBytes(t *testing.T) {
	const warmSlack, permSlack = 32 << 10, 8 << 10
	execute := func(req Request) func() {
		return func() {
			if _, err := Execute(context.Background(), req, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	// sharded is ExecuteSharded that also waits for the pool's workers, so
	// that the expansion the last of them hands back is idle for the next
	// call, as it is for a campaign that does not follow at once.
	sharded := func(req Request) func() {
		return func() {
			pool := NewShardPool(ShardPoolOptions{Shards: 4})
			_, err := pool.Execute(context.Background(), req, 1, nil)
			pool.Wait()
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	// replan runs each call on an empty plan cache. The seed stays: a
	// fresh one would also walk new nets into the runners' logs and
	// resolve new forcings, which the half-size campaign, a prefix of the
	// same sample, does not, so the two would not be measured alike.
	replan := func(req Request) func() {
		return func() {
			planCache.forget()
			if _, err := Execute(context.Background(), req, 1, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	hybrid := Request{Workload: "puwmod", Iterations: 2, Target: "iu", Engine: "hybrid", RTLAudit: 0.1, Nodes: 256, Seed: 7}
	for _, c := range []struct {
		name string
		run  func(Request) func()
		req  Request
		// slack, when nonzero, bounds the bytes beside the experiments array.
		slack int
	}{
		{"perm", execute, warmRequest, permSlack},
		{"hybrid", execute, hybrid, warmSlack},
		{"hybrid-plan", replan, hybrid, warmSlack},
		{"sharded", sharded, warmRequest, warmSlack},
	} {
		t.Run(c.name, func(t *testing.T) {
			half := c.req
			half.Nodes /= 2
			full, small := warmBytes(c.run(c.req)), warmBytes(c.run(half))
			outcome := 3 * c.req.Nodes * int(unsafe.Sizeof(ExperimentOutcome{}))
			t.Logf("%s: %.0f bytes over %d experiments (experiments array %d), %.0f over half as many",
				c.name, full, 3*c.req.Nodes, outcome, small)
			if full > 2*small+warmSlack {
				t.Errorf("%s: %.0f bytes over %d experiments, %.0f over half as many: want at most twice plus %d",
					c.name, full, 3*c.req.Nodes, small, warmSlack)
			}
			if c.slack > 0 && full > float64(outcome+c.slack) {
				t.Errorf("%s: a warm campaign allocates %.0f bytes: want at most its experiments array, %d, plus %d",
					c.name, full, outcome, c.slack)
			}
		})
	}
}

// warmBytes returns the bytes run allocates a call, after two calls that
// warm what it runs on.
func warmBytes(run func()) float64 {
	const runs = 5
	run()
	run()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestWarmRunnerLookupAllocatesNothing: resolving a runner the cache has
// built — both of a hybrid campaign's, under a context that can be
// cancelled — starts no goroutine and makes no channel: it allocates
// nothing.
func TestWarmRunnerLookupAllocatesNothing(t *testing.T) {
	n, err := warmRequest.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lookup := func() {
		r, err := runnerFor(ctx, n, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := issRunnerFor(ctx, n, nil, r.GoldenCycles, r.InjectCycle()); err != nil {
			t.Fatal(err)
		}
	}
	lookup() // build both
	if a := testing.AllocsPerRun(100, lookup); a != 0 {
		t.Errorf("a warm runner lookup allocates %v times, want 0", a)
	}
}

// mapTally is assembleOutcome's tally as it was: a map assignment per
// experiment into each of three string-keyed maps.
func mapTally(exps []ExperimentOutcome) (outcomes map[string]int, pfByUnit map[string]float64) {
	outcomes, pfByUnit = map[string]int{}, map[string]float64{}
	unitTotal, unitFail := map[string]int{}, map[string]int{}
	for _, e := range exps {
		outcomes[e.Outcome]++
		unitTotal[e.Unit]++
		if e.Outcome != noEffect {
			unitFail[e.Unit]++
		}
	}
	for u, n := range unitTotal {
		pfByUnit[u] = float64(unitFail[u]) / float64(n)
	}
	return outcomes, pfByUnit
}

// TestHostileTallyMatchesMapTally: what a remote worker may send — 20,000
// experiments whose unit and outcome strings are nearly all distinct, some
// needing JSON escaping, some empty, among the ones this process prints —
// assembles to the bytes the map tally gives, and past the tally's scanned
// keys the rest are found through its map, not by a scan that would make the
// tally quadratic. The hybrid accounting of the same experiments, routed
// every which way, finds its classes likewise: each, in first-appearance
// order, is the one class of that unit's experiments accounted alone.
func TestHostileTallyMatchesMapTally(t *testing.T) {
	const n = 20_000
	escaping := []string{"", `a"b`, `a\b`, "<script>", "a&b", "tab\there", "nul\x00", "line sep", "é", "\n"}
	exps := make([]ExperimentOutcome, n)
	for i := range exps {
		e := &exps[i]
		e.Node, e.Model, e.Latency, e.Cycles = "iu.ex.result.3", "sa0", int64(i%97)-1, uint64(i)
		switch i % 5 {
		case 0: // what this process prints
			e.Unit, e.Outcome = "ALU", noEffect
		case 1:
			e.Unit, e.Outcome = escaping[(i/5)%len(escaping)], escaping[(i/3)%len(escaping)]
		default:
			e.Unit, e.Outcome = fmt.Sprintf("unit-%d", i), fmt.Sprintf("outcome-%d", i)
		}
	}
	req := Request{Workload: "rspeed", Target: "iu", Models: []string{"sa0"}}
	start := time.Now()
	got := assembleOutcome(req, 1234, true, n+1, exps)
	elapsed := time.Since(start)
	want := *got
	want.Outcomes, want.PfByUnit = mapTally(exps)
	t.Logf("%d experiments, %d outcomes and %d units tallied in %v", n, len(got.Outcomes), len(got.PfByUnit), elapsed)
	if !maps.Equal(got.Outcomes, want.Outcomes) || !maps.Equal(got.PfByUnit, want.PfByUnit) {
		t.Fatal("the tally differs from the map tally")
	}
	gb, err := encodeOutcome(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := encodeOutcome(&want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gb, wb) {
		t.Fatal("the outcome assembled from the tally encodes differently from the map tally's")
	}

	var units tally
	for i := range exps {
		units.add(exps[i].Unit, false)
	}
	if units.k != tallyScan || units.size() != len(want.PfByUnit) || len(units.more) != units.size()-tallyScan {
		t.Errorf("%d units: %d scanned, %d in the map; want %d scanned and the rest in the map", units.size(), units.k, len(units.more), tallyScan)
	}

	for i := range exps {
		e := &exps[i]
		switch i % 3 {
		case 0:
			e.Engine, e.Audited, e.Predicted = "rtl", true, []string{noEffect, "mismatch"}[i%2]
		case 1: // escalated
			e.Engine, e.Predicted = "rtl", noEffect
		default:
			e.Engine = "iss"
		}
	}
	req.Engine, req.Confidence = "hybrid", 0.5
	start = time.Now()
	h := hybridAccounting(req, &Outcome{Experiments: exps})
	elapsed = time.Since(start)
	byUnit := map[string][]ExperimentOutcome{}
	var order []string
	for _, e := range exps {
		if _, ok := byUnit[e.Unit]; !ok {
			order = append(order, e.Unit)
		}
		byUnit[e.Unit] = append(byUnit[e.Unit], e)
	}
	t.Logf("%d hybrid classes accounted in %v", len(h.Classes), elapsed)
	if len(h.Classes) != len(order) {
		t.Fatalf("%d hybrid classes over %d distinct units", len(h.Classes), len(order))
	}
	for k, u := range order {
		alone := hybridAccounting(req, &Outcome{Experiments: byUnit[u]}).Classes
		if len(alone) != 1 || h.Classes[k] != alone[0] {
			t.Fatalf("hybrid class %d is %+v, accounted alone %+v", k, h.Classes[k], alone)
		}
	}
}
