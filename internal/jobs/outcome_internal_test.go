package jobs

import (
	"bytes"
	"context"
	"testing"

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
	exps := experimentsFor(eng, n)
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
