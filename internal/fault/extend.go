package fault

import "repro/internal/rtl"

// This file extends the campaign runner beyond the paper's permanent-fault
// scope with saboteur-style bridging faults between two nets. (Transient
// upsets are first-class fault models: an Experiment with Model BitFlip
// or SETPulse and its AtCycle set.)

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
	c := watchTrace(&r.golden, bus, core.Cycles, 0)

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
