package campaign

import (
	"context"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// This file holds the hybrid router's statistical primitive and the
// memoized ISS-runner cache. The router itself lives in internal/jobs
// (it needs the request/outcome schema); the confidence signal it
// routes on is computed here, next to the Equation (1) machinery it
// descends from.

// IndicatorR2 computes the routing confidence of one node class from
// its audited (ISS-predicted failure, RTL-measured failure) indicator
// pairs: the R² of the least-squares fit of measured on predicted —
// for a simple regression, the squared Pearson correlation of the two
// indicators. It is the per-class goodness-of-fit of Equation (1)'s
// prediction applied at experiment granularity: 1 when the ISS verdict
// determines the RTL verdict on the audit sample, 0 when it carries no
// information.
//
// Degenerate samples are resolved by agreement, not by the fit: when
// either indicator has zero variance (all-failing or all-passing), R²
// is 1 if every pair agrees and 0 otherwise. A constant predictor that
// matches a constant measurement is a perfect router even though no
// line can be fitted through it; a constant predictor that misses even
// once has demonstrated nothing.
func IndicatorR2(pred, meas []bool) float64 {
	if len(pred) != len(meas) || len(pred) == 0 {
		return 0
	}
	xs := make([]float64, len(pred))
	ys := make([]float64, len(meas))
	agree := true
	for i := range pred {
		if pred[i] {
			xs[i] = 1
		}
		if meas[i] {
			ys[i] = 1
		}
		if pred[i] != meas[i] {
			agree = false
		}
	}
	if _, _, r2, err := stats.LinFit(xs, ys); err == nil {
		// LinFit reports R²=1 for a zero-variance response; that verdict
		// is only trustworthy when the predictor actually tracked it.
		if !varies(ys) {
			if agree {
				return 1
			}
			return 0
		}
		return r2
	}
	// Zero-variance predictor (or n<2): no fit exists.
	if agree {
		return 1
	}
	return 0
}

func varies(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return true
		}
	}
	return false
}

// issRunnerKey identifies a memoized ISS runner: the RTL runnerKey plus
// the timebase pinning (cycleRef, fixedCycle) — an ISS runner pinned to
// a different RTL golden length is a different engine.
type issRunnerKey struct {
	runnerKey
	cycleRef   uint64
	fixedCycle uint64
}

var issRunnerCache = onceCache[issRunnerKey, *fault.ISSRunner]{build: buildISSRunner}

// ISSRunnerFor returns the process-wide memoized ISS campaign runner
// for a (workload, config, options, timebase) tuple, building it —
// golden emulation included — on first use. The cache has RunnerFor's
// policy (see onceCache) and, like it, is keyed with the observability
// registry stripped.
func ISSRunnerFor(name string, cfg workloads.Config, fopts fault.Options, cycleRef, fixedCycle uint64) (*fault.ISSRunner, error) {
	return ISSRunnerForContext(context.Background(), name, cfg, fopts, cycleRef, fixedCycle)
}

// ISSRunnerForContext is ISSRunnerFor under ctx, as RunnerForContext is
// RunnerFor.
func ISSRunnerForContext(ctx context.Context, name string, cfg workloads.Config, fopts fault.Options, cycleRef, fixedCycle uint64) (*fault.ISSRunner, error) {
	key := issRunnerKey{
		runnerKey:  runnerKey{name: name, cfg: cfg, opts: fopts},
		cycleRef:   cycleRef,
		fixedCycle: fixedCycle,
	}
	key.opts.Obs = nil
	return issRunnerCache.get(ctx, key, fopts.Obs)
}

// buildISSRunner builds the runner of an ISSRunnerFor key.
func buildISSRunner(key issRunnerKey, reg *obs.Registry) (*fault.ISSRunner, error) {
	w, err := workloads.Build(key.name, key.cfg)
	if err != nil {
		return nil, err
	}
	fopts := key.opts
	fopts.Obs = reg
	return fault.NewISSRunner(w.Program, fopts, key.cycleRef, key.fixedCycle)
}
