package jobs

import (
	"context"
	"errors"
	"math"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sparc"
	"repro/internal/stats"
)

// This file implements the hybrid ISS-predicted, RTL-audited campaign
// router — the production form of the paper's thesis that a cheap ISS
// predicts RTL failure probability well enough to stand in for it. The
// router runs the full experiment list on the ISS engine, re-runs a
// deterministic Bernoulli(rtl_audit) sample on RTL, scores each node
// class (functional unit) by the R² of its audited
// predicted-vs-measured failure indicators, and escalates every class
// below the confidence threshold to full RTL re-execution. ISS-trusted
// experiments keep their predicted classification; audited and
// escalated ones carry RTL truth plus the prediction they replaced, so
// every aggregate the router reports is recomputable from the
// experiments array alone — the single-merge-path property that keeps
// sharded hybrid campaigns byte-identical to unsharded ones.
//
// Sharding: the routing plan (ISS pass, audit sample, escalation set)
// is a pure function of the normalized request, so every shard — and
// every remote worker process — computes the identical plan and each
// experiment's final engine is a pure function of (request, absolute
// index). In-process the plan is memoized; a remote worker pays the
// plan once per process. The audit sample spans the whole campaign, so
// a worker executing one shard still audits out-of-range experiments —
// bounded duplicated work (rtl_audit of the campaign per worker
// process), the price of keeping shard outputs order- and
// partition-independent.

// minClassAudits is the smallest audit sample a node class may be
// judged on; with fewer audited experiments the class escalates to RTL
// outright — an unjudged prediction is never trusted.
const minClassAudits = 2

// escalateClass is the router's per-class verdict: escalate to full RTL
// re-execution when the audit sample is too small to judge, or when the
// R² of its predicted-vs-measured failure indicators falls below the
// confidence threshold. Both the planner and the outcome accounting go
// through this one function, so the reported Escalated flags are always
// the decisions the router actually made.
func escalateClass(pred, meas []bool, confidence float64) bool {
	return len(pred) < minClassAudits || indicatorR2(pred, meas) < confidence
}

// indicatorR2 computes the routing confidence of one node class from its
// audited (ISS-predicted failure, RTL-measured failure) indicator pairs:
// the R² of the least-squares fit of measured on predicted — for a simple
// regression, the squared Pearson correlation of the two indicators. It is
// the per-class goodness-of-fit of Equation (1)'s prediction applied at
// experiment granularity: 1 when the ISS verdict determines the RTL verdict
// on the audit sample, 0 when it carries no information.
//
// Degenerate samples are resolved by agreement, not by the fit: when
// either indicator has zero variance (all-failing or all-passing), R² is 1
// if every pair agrees and 0 otherwise. A constant predictor that matches a
// constant measurement is a perfect router even though no line can be
// fitted through it; a constant predictor that misses even once has
// demonstrated nothing.
func indicatorR2(pred, meas []bool) float64 {
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

// routerMetrics counts the hybrid router's decisions. Registries dedupe
// by name, so constructing the set per plan build is cheap and safe.
type routerMetrics struct {
	experiments   *obs.CounterVec
	decisions     *obs.CounterVec
	disagreements *obs.Counter
	escalated     *obs.Counter
}

func newRouterMetrics(r *obs.Registry) routerMetrics {
	return routerMetrics{
		experiments: r.CounterVec("router_experiments_total",
			"Hybrid-campaign experiment executions by engine (audits and escalations count as rtl).", "engine"),
		decisions: r.CounterVec("router_decisions_total",
			"Hybrid-router routing decisions per experiment (trust, audit, escalate).", "decision"),
		disagreements: r.Counter("router_audit_disagreements_total",
			"Audited hybrid experiments whose ISS-predicted failure indicator disagreed with RTL."),
		escalated: r.Counter("router_classes_escalated_total",
			"Node classes escalated to full RTL re-execution by the confidence rule."),
	}
}

// hybridPlan is the routing plan of one hybrid campaign: the shared RTL
// runner, the deterministic expansion, the full ISS prediction pass,
// the audit sample with its RTL results, and the escalation set. It is
// a pure function of the normalized request.
type hybridPlan struct {
	rtl   *fault.Runner
	exps  []fault.Experiment
	pred  []fault.Result
	audit []fault.Result // the audit pass's results, in experiment order
	// auditAt is, per experiment, its index in audit; -1 for one the
	// sample left out.
	auditAt   []int32
	escalated [classSlots]bool
}

// classSlots is the number of node classes a plan tells apart: one per
// functional unit, and one shared by every unit past sparc.NumUnits, which
// all print "unit?" — so a plan's classes are exactly the outcome's, which
// group experiments by the unit's name.
const classSlots = sparc.NumUnits + 1

// classOf returns the class slot of unit u.
func classOf(u sparc.Unit) int { return int(min(u, sparc.NumUnits)) }

// planCache memoizes hybrid plans per content address so the in-process
// shard pool pays the ISS pass and audit set once per campaign, not
// once per shard. Failed builds (including cancellations) are evicted
// so a later submission retries cleanly.
var planCache struct {
	mu    sync.Mutex
	m     map[string]*planEntry
	order []string
}

const maxPlans = 8

type planEntry struct {
	done chan struct{}
	plan *hybridPlan
	err  error
}

func hybridPlanFor(ctx context.Context, n Request, workers int, reg *obs.Registry) (*hybridPlan, error) {
	key, err := keyOf(n)
	if err != nil {
		return nil, err
	}
	return cachedPlan(ctx, key, func() (*hybridPlan, error) { return buildHybridPlan(ctx, n, workers, reg) })
}

// cachedPlan returns key's plan from planCache, building it — once, however
// many callers ask meanwhile — when it is not there.
func cachedPlan(ctx context.Context, key string, build func() (*hybridPlan, error)) (*hybridPlan, error) {
	planCache.mu.Lock()
	if planCache.m == nil {
		planCache.m = make(map[string]*planEntry)
	}
	e := planCache.m[key]
	owner := e == nil
	if owner {
		for len(planCache.m) >= maxPlans {
			delete(planCache.m, planCache.order[0])
			planCache.order = planCache.order[1:]
		}
		e = &planEntry{done: make(chan struct{})}
		planCache.m[key] = e
		planCache.order = append(planCache.order, key)
	}
	planCache.mu.Unlock()
	if owner {
		e.plan, e.err = build()
		if e.err != nil {
			planCache.mu.Lock()
			// Only while the entry is still this owner's: evicted meanwhile,
			// the key may belong to a later submission's live plan.
			if planCache.m[key] == e {
				delete(planCache.m, key)
				for i, k := range planCache.order {
					if k == key {
						planCache.order = append(planCache.order[:i], planCache.order[i+1:]...)
						break
					}
				}
			}
			planCache.mu.Unlock()
		}
		close(e.done)
		return e.plan, e.err
	}
	select {
	case <-e.done:
		// The owner's cancellation is not this caller's. Its entry is
		// already evicted, so asking again builds or joins a live one.
		if ctx.Err() == nil && (errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded)) {
			return cachedPlan(ctx, key, build)
		}
		return e.plan, e.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// buildHybridPlan executes the routing plan's two phases: the full ISS
// prediction pass and the RTL audit pass, then scores every node class.
func buildHybridPlan(ctx context.Context, n Request, workers int, reg *obs.Registry) (*hybridPlan, error) {
	rtlR, err := runnerFor(ctx, n, reg)
	if err != nil {
		return nil, err
	}
	exps := experimentsFor(nil, rtlR, n)
	// Pin the ISS engine to the RTL cycle timebase so one experiment
	// list — instants in RTL cycles — drives both engines.
	issR, err := issRunnerFor(ctx, n, reg, rtlR.GoldenCycles, rtlR.InjectCycle())
	if err != nil {
		return nil, err
	}
	met := newRouterMetrics(reg)
	pred, _, err := issR.CampaignStopContext(ctx, exps, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	met.experiments.With("iss").Add(float64(len(exps)))

	auditAt := make([]int32, len(exps))
	audits := int32(0)
	for i := range exps {
		auditAt[i] = -1
		if fault.AuditSample(n.Seed, i, n.RTLAudit) {
			auditAt[i] = audits
			audits++
		}
	}
	auditExps := make([]fault.Experiment, 0, audits)
	for i, j := range auditAt {
		if j >= 0 {
			auditExps = append(auditExps, exps[i])
		}
	}
	audit, _, err := rtlR.CampaignStopContext(ctx, auditExps, workers, nil, nil)
	if err != nil {
		return nil, err
	}
	met.experiments.With("rtl").Add(float64(len(auditExps)))

	var byClass [classSlots]struct{ pred, meas []bool }
	var seen [classSlots]bool
	disag := 0
	for i := range exps {
		c := classOf(exps[i].Node.Unit)
		seen[c] = true
		j := auditAt[i]
		if j < 0 {
			continue
		}
		p := pred[i].Outcome.IsFailure()
		m := audit[j].Outcome.IsFailure()
		if p != m {
			disag++
		}
		byClass[c].pred = append(byClass[c].pred, p)
		byClass[c].meas = append(byClass[c].meas, m)
	}
	met.disagreements.Add(float64(disag))

	var escalated [classSlots]bool
	for c := range escalated {
		if seen[c] && escalateClass(byClass[c].pred, byClass[c].meas, n.Confidence) {
			escalated[c] = true
			met.escalated.Inc()
		}
	}
	// Counted here and added once per decision: a series is resolved per
	// plan, not per experiment, and one that no experiment took is never
	// created.
	decision := [...]string{"audit", "escalate", "trust"}
	var decided [len(decision)]int
	for i := range exps {
		switch {
		case auditAt[i] >= 0:
			decided[0]++
		case escalated[classOf(exps[i].Node.Unit)]:
			decided[1]++
		default:
			decided[2]++
		}
	}
	for d, n := range decided {
		if n > 0 {
			met.decisions.With(decision[d]).Add(float64(n))
		}
	}
	return &hybridPlan{
		rtl:       rtlR,
		exps:      exps,
		pred:      pred,
		audit:     audit,
		auditAt:   auditAt,
		escalated: escalated,
	}, nil
}

// escalations lists, ascending, the experiments of [start,end) the router
// still owes an RTL run: members of escalated classes that the audit
// sample did not already cover. They are the only per-range engine work
// of a hybrid campaign.
func (p *hybridPlan) escalations(start, end int) []int {
	var idx []int
	for i := start; i < end; i++ {
		if p.auditAt[i] < 0 && p.escalated[classOf(p.exps[i].Node.Unit)] {
			idx = append(idx, i)
		}
	}
	return idx
}

// result is the result of an experiment the plan itself resolved: an
// audited one's RTL truth, a trusted one's ISS prediction.
func (p *hybridPlan) result(i int) *fault.Result {
	if j := p.auditAt[i]; j >= 0 {
		return &p.audit[j]
	}
	return &p.pred[i]
}

// label sets the hybrid fields of the wire outcome of an experiment the plan
// itself resolved: an audited one carries the prediction its RTL truth
// replaced, a trusted one says it is the ISS's.
func (p *hybridPlan) label(eo *ExperimentOutcome, i int) {
	if p.auditAt[i] < 0 {
		eo.Engine = "iss"
		return
	}
	eo.Engine, eo.Audited = "rtl", true
	eo.Predicted = p.pred[i].Outcome.String()
}

// HybridClass is one node class (functional unit) of a hybrid
// campaign's audit accounting, in first-appearance order of the
// experiments array.
type HybridClass struct {
	Unit        string `json:"unit"`
	Experiments int    `json:"experiments"`
	// RTLExperiments counts the class's experiments whose final
	// classification came from RTL (audits plus escalations).
	RTLExperiments int `json:"rtl_experiments"`
	Audited        int `json:"audited"`
	Disagreements  int `json:"disagreements"`
	// R2 is the class's routing confidence: IndicatorR2 over its audited
	// predicted-vs-measured failure indicator pairs.
	R2 float64 `json:"r2"`
	// Escalated reports the router's verdict, recomputed from the
	// experiments array by the same rule the router applied: too few
	// audits, or R² below the request's confidence threshold.
	Escalated bool `json:"escalated"`
	// PredictedPf is the ISS-predicted failure fraction over the whole
	// class; AuditedPf is the RTL-measured fraction over its audits.
	PredictedPf float64 `json:"predicted_pf"`
	AuditedPf   float64 `json:"audited_pf"`
}

// HybridOutcome is the router's audit-disagreement accounting. Every
// field is a pure function of the request and the experiments array —
// assembleOutcome recomputes it after any shard merge, so hybrid
// campaigns keep the byte-identity-under-sharding property.
type HybridOutcome struct {
	// ISSExperiments and RTLExperiments partition the campaign by the
	// engine that produced each final classification.
	ISSExperiments int `json:"iss_experiments"`
	RTLExperiments int `json:"rtl_experiments"`
	Audited        int `json:"audited"`
	// Disagreements counts audited experiments whose predicted and
	// measured failure indicators differ; DisagreementRate is their
	// fraction of the audit sample.
	Disagreements    int           `json:"disagreements"`
	DisagreementRate float64       `json:"disagreement_rate"`
	Classes          []HybridClass `json:"classes"`
	// CorrectedPfLow/High widen the campaign's Wilson interval by the
	// audit-measured prediction-error bound: the Wilson upper bound of
	// the disagreement rate, scaled by the unaudited ISS-trusted
	// fraction of the campaign. Within the audit's own confidence, the
	// true (all-RTL) Pf lies inside this interval even if every
	// unaudited ISS verdict is wrong in the same direction.
	CorrectedPfLow  float64 `json:"corrected_pf_low"`
	CorrectedPfHigh float64 `json:"corrected_pf_high"`
}

// hybridAccounting recomputes the router's accounting from the merged
// experiments array alone (plus the request's thresholds).
func hybridAccounting(req Request, out *Outcome) *HybridOutcome {
	h := &HybridOutcome{}
	type cls struct {
		unit                   string
		n, rtl, audited, disag int
		predFail, measFail     int
		pred, meas             []bool
	}
	// The classes in first-appearance order, each found through a tally of
	// the units that holds its index.
	classes := make([]cls, 0, classSlots)
	var units tally
	for _, e := range out.Experiments {
		u := units.find(e.Unit)
		if u.n == 0 {
			u.at = len(classes)
			classes = append(classes, cls{unit: e.Unit})
		}
		u.n++
		c := &classes[u.at]
		c.n++
		predStr := e.Predicted
		if predStr == "" {
			predStr = e.Outcome // ISS-trusted: the outcome is the prediction
		}
		pf := predStr != noEffect
		if pf {
			c.predFail++
		}
		switch e.Engine {
		case "iss":
			h.ISSExperiments++
		case "rtl":
			h.RTLExperiments++
			c.rtl++
		}
		if e.Audited {
			h.Audited++
			c.audited++
			mf := e.Outcome != noEffect
			c.pred = append(c.pred, pf)
			c.meas = append(c.meas, mf)
			if mf {
				c.measFail++
			}
			if pf != mf {
				c.disag++
				h.Disagreements++
			}
		}
	}
	if h.Audited > 0 {
		h.DisagreementRate = float64(h.Disagreements) / float64(h.Audited)
	}
	for i := range classes {
		c := &classes[i]
		hc := HybridClass{
			Unit:           c.unit,
			Experiments:    c.n,
			RTLExperiments: c.rtl,
			Audited:        c.audited,
			Disagreements:  c.disag,
			R2:             indicatorR2(c.pred, c.meas),
			PredictedPf:    float64(c.predFail) / float64(c.n),
		}
		hc.Escalated = escalateClass(c.pred, c.meas, req.Confidence)
		if c.audited > 0 {
			hc.AuditedPf = float64(c.measFail) / float64(c.audited)
		}
		h.Classes = append(h.Classes, hc)
	}
	if out.Injections > 0 {
		u := float64(h.ISSExperiments) / float64(out.Injections)
		_, dHi := stats.WilsonCI(h.Disagreements, h.Audited, stats.Z95)
		h.CorrectedPfLow = math.Max(0, out.PfLow-dHi*u)
		h.CorrectedPfHigh = math.Min(1, out.PfHigh+dHi*u)
	}
	return h
}
