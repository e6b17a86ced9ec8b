package fault

import "context"

// The package's tests drive the engines through more than the engine
// contract: a campaign collected into an input-ordered array, one scalar
// experiment, and the failure count and Pf of a result array as oracles.

// testEngine is CampaignEngine with the collecting campaign the tests run
// on either engine.
type testEngine interface {
	CampaignEngine
	CampaignStopContext(ctx context.Context, exps []Experiment, workers int,
		tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error)
}

// Campaign runs the experiments across workers and returns results in
// input order: CampaignStopContext with no context, tap or stop rule.
func (r *Runner) Campaign(exps []Experiment, workers int) []Result {
	results, _, _ := r.CampaignStopContext(context.Background(), exps, workers, nil, nil)
	return results
}

// Campaign is the RTL engine's Campaign on the emulator.
func (r *ISSRunner) Campaign(exps []Experiment, workers int) []Result {
	results, _, _ := r.CampaignStopContext(context.Background(), exps, workers, nil, nil)
	return results
}

// RunOne executes a single injection experiment on the emulator, as a call
// of its own; see resolve.
func (r *ISSRunner) RunOne(e Experiment) Result {
	var res Result
	r.resolve(&e, r.verdicts.begin(), &res, nil)
	return res
}

// failures counts the experiments whose fault propagated to a failure.
func failures(results []Result) int {
	n := 0
	for _, r := range results {
		if r.Outcome.IsFailure() {
			n++
		}
	}
	return n
}

// pf is the fraction of the experiments whose fault propagated to a
// failure, 0 for none.
func pf(results []Result) float64 {
	if len(results) == 0 {
		return 0
	}
	return float64(failures(results)) / float64(len(results))
}
