package fault

import (
	"context"

	"repro/internal/rtl"
)

// This file extends the campaign runner beyond the paper's permanent-fault
// scope with saboteur-style bridging faults between two nets, and keeps
// the historical single-experiment transient surface (RunTransient,
// TransientCampaign) as thin wrappers over the first-class transient
// models in fault.go.

// TransientExperiment is one bit-flip at a fixed cycle.
type TransientExperiment struct {
	Node    NodeInfo
	AtCycle uint64
}

// RunTransient executes a single-event-upset experiment: the program runs
// cleanly until AtCycle, the node's present value is inverted once, and
// the run continues under the same off-core comparison as permanent
// faults. It is RunOne with the BitFlip model, so it rides the pooled
// (and, for instants at or beyond the fork point, checkpointed) engine.
func (r *Runner) RunTransient(e TransientExperiment) Result {
	return r.RunOne(Experiment{Node: e.Node, Model: rtl.BitFlip, AtCycle: e.AtCycle})
}

// TransientCampaign crosses nodes with injection instants and runs the
// experiments in parallel, returning results in input order (nodes major,
// instants minor).
func (r *Runner) TransientCampaign(nodes []NodeInfo, atCycles []uint64, workers int) []Result {
	results, _ := r.TransientCampaignContext(context.Background(), nodes, atCycles, workers)
	return results
}

// TransientCampaignContext is TransientCampaign under a context, with the
// same cancellation semantics as CampaignContext: workers stop within one
// experiment granule and the partial results return with ctx.Err().
func (r *Runner) TransientCampaignContext(ctx context.Context, nodes []NodeInfo, atCycles []uint64, workers int) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	exps := make([]TransientExperiment, 0, len(nodes)*len(atCycles))
	for _, n := range nodes {
		for _, c := range atCycles {
			exps = append(exps, TransientExperiment{Node: n, AtCycle: c})
		}
	}
	if workers <= 0 {
		workers = 8
	}
	results := make([]Result, len(exps))
	err := runIndexed(ctx, len(exps), workers, func(i int) {
		results[i] = r.RunTransient(exps[i])
	})
	return results, err
}

// BridgeExperiment shorts two nodes for the whole run.
type BridgeExperiment struct {
	A, B NodeInfo
	Kind rtl.BridgeKind
}

// RunBridge executes a bridging-fault experiment.
func (r *Runner) RunBridge(e BridgeExperiment) Result {
	core, bus := r.freshCore()
	res := Result{
		Fault:   rtl.Fault{Node: e.A.Node},
		Unit:    e.A.Unit,
		Latency: -1,
	}
	c := r.watch(bus, core, 0)

	if err := core.K.InjectBridge(e.A.Node, e.B.Node, e.Kind); err != nil {
		res.Outcome = OutcomeNoEffect
		return res
	}
	for r.live(core, c) {
		core.StepCycle()
	}
	r.classify(&res, core, bus, c, 0)
	return res
}
