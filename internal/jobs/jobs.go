// Package jobs is the campaign job service: a long-running scheduler that
// accepts fault-injection campaign requests, deduplicates them through a
// content-addressed result cache, runs them on a bounded worker pool with
// cooperative cancellation, and streams incremental progress — experiment
// counts and progressive Pf estimates with Wilson confidence intervals —
// to any number of watchers.
//
// The package is the engine behind both the public async API in repro/core
// (SubmitCampaign / JobStatus / WatchProgress) and the HTTP/NDJSON daemon
// in cmd/faultserverd (via internal/server). Both surfaces share the same
// Request and Outcome encodings, so a campaign submitted over HTTP is
// byte-for-byte diffable against `faultcampaign -json` run with the same
// spec.
//
// # Content addressing
//
// A request's identity is the SHA-256 of the canonical JSON encoding of
// its normalized form (defaults applied, names validated; see
// Request.Normalize). Scheduling knobs — how many workers execute the
// campaign — are deliberately not part of the request, so two submissions
// that describe the same experiment set hash identically no matter how
// the service is configured. The manager uses the hash twice: an
// in-flight submission with the same key coalesces onto the running job,
// and a completed one is served straight from the result cache without
// touching the engine.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"unsafe"

	"repro/internal/asm"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/stats"
	"repro/internal/workloads"
)

// Request describes one fault-injection campaign. The zero value of every
// optional field selects the engine default. Normalize canonicalizes the
// named fields before hashing — a blank target and "iu", or an empty
// model list and all three models spelled out, yield the same content
// address — while numeric fields participate verbatim: 0 iterations
// means "workload default" and hashes differently from the same count
// written out, because the service cannot know a workload's default
// without building it.
type Request struct {
	// Workload names a bundled benchmark (core.WorkloadNames).
	Workload string `json:"workload"`
	// Iterations is the kernel iteration count (0 = workload default).
	Iterations int `json:"iterations,omitempty"`
	// Dataset selects the input dataset.
	Dataset int `json:"dataset,omitempty"`
	// Target is the injected hierarchy: "iu" (default) or "cmem".
	Target string `json:"target"`
	// Models lists fault models: permanent ("sa0", "sa1", "open") and
	// transient ("seu" single-event bit-flip, "set" transient glitch
	// pulse). Empty selects the three permanent models in the engine's
	// canonical order — transient models are opted into by name, so every
	// pre-existing request keeps its content address.
	Models []string `json:"models"`
	// Nodes is the statistical node sample size; 0 injects every node.
	Nodes int `json:"nodes,omitempty"`
	// Seed makes node sampling reproducible.
	Seed int64 `json:"seed,omitempty"`
	// InjectAtCycle is the fixed injection instant.
	InjectAtCycle uint64 `json:"inject_at_cycle,omitempty"`
	// InjectAtFraction positions the injection instant at this fraction
	// of the golden run (overrides InjectAtCycle when nonzero).
	InjectAtFraction float64 `json:"inject_at_fraction,omitempty"`
	// PulseCycles is the width of a "set" glitch in cycles (0 selects 1;
	// at most fault.MaxPulseCycles). Like the models list it changes which experiments run, so it
	// participates in the content address; requests without the "set"
	// model normalize it away entirely.
	PulseCycles uint64 `json:"pulse_cycles,omitempty"`
	// NoCheckpoint runs the campaign on the engine's from-reset scalar
	// reference instead of the production engine (engine checking only;
	// results are identical).
	NoCheckpoint bool `json:"no_checkpoint,omitempty"`
	// NoBatch is a frozen wire name and selects nothing. It once forced
	// one scalar simulation per experiment; requests that carry it are
	// still accepted, keep the content address they always had (the field
	// joins the canonical encoding, omitted when false) and get it echoed
	// in their outcome, and run on the same engine as everyone else.
	NoBatch bool `json:"no_batch,omitempty"`
	// Epsilon, when nonzero, enables adaptive early stopping: the campaign
	// halts — and outstanding shards are cancelled — once the Wilson 95%
	// half-width around the progressive Pf drops to Epsilon or below. The
	// outcome then covers only the completed experiments (EarlyStopped is
	// set and Requested records the planned total). Unlike scheduling
	// knobs, Epsilon changes the result's content, so it participates in
	// the content address.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Engine selects the simulation backend: "rtl" (default, normalized
	// to the empty string so every pre-existing request keeps its content
	// address), "iss" (the instruction-set simulator alone — cheap,
	// predictive, not signal-accurate), or "hybrid" (the ISS-first
	// router: predict everything on the ISS, audit a deterministic
	// RTLAudit fraction on RTL, and re-run whole node classes whose
	// audited prediction quality falls below Confidence). Unlike
	// scheduling knobs the engine changes what the reported numbers
	// mean — an ISS latency is in instructions, a hybrid Pf carries
	// audit-corrected uncertainty — so it participates in the content
	// address.
	Engine string `json:"engine,omitempty"`
	// RTLAudit is the hybrid router's audit fraction: the deterministic
	// Bernoulli(RTLAudit) sample of experiments — keyed by (seed,
	// absolute index) — that run on RTL regardless of class confidence.
	// Zero selects the 0.1 default under engine "hybrid"; 1.0 audits
	// everything, which is a pure RTL campaign and normalizes to one.
	RTLAudit float64 `json:"rtl_audit,omitempty"`
	// Confidence is the per-class R² threshold below which the hybrid
	// router distrusts the ISS and re-runs the whole class on RTL. Zero
	// selects the 0.9 default under engine "hybrid".
	Confidence float64 `json:"confidence,omitempty"`
}

// MaxIterations bounds a request's kernel iteration count. The largest
// workload default is 60 and Figure 4 tops out at 10; anything near this
// limit would blow the engine's 200M-cycle golden-run budget anyway.
const MaxIterations = 100_000

// modelOrder maps wire names onto fault models, in canonical order:
// permanent models first (the historical trio an empty request selects),
// then the transient extensions.
var modelOrder = []struct {
	name  string
	model rtl.FaultModel
}{
	{"sa0", rtl.StuckAt0},
	{"sa1", rtl.StuckAt1},
	{"open", rtl.OpenLine},
	{"seu", rtl.BitFlip},
	{"set", rtl.SETPulse},
}

// ModelName returns the wire name a Request spells model with, or "" for a
// model no request can select.
func ModelName(model rtl.FaultModel) string {
	for _, m := range modelOrder {
		if m.model == model {
			return m.name
		}
	}
	return ""
}

func parseModel(name string) (rtl.FaultModel, error) {
	for _, m := range modelOrder {
		if m.name == name {
			return m.model, nil
		}
	}
	return 0, fmt.Errorf("jobs: unknown fault model %q (want sa0, sa1, open, seu or set)", name)
}

// Normalize validates the request and returns its canonical form: target
// and model names checked, an empty model list expanded to all models in
// canonical order. The canonical form is what Key hashes, so requests
// that differ only in how defaults are spelled are the same campaign.
func (r Request) Normalize() (Request, error) {
	if r.Workload == "" {
		return r, fmt.Errorf("jobs: request missing workload")
	}
	// Reject unknown workloads up front: accepting them would hand out a
	// job doomed to fail at execution, and every distinct bad name would
	// burn a slot in the bounded runner cache.
	if !workloads.Known(r.Workload) {
		return r, fmt.Errorf("jobs: unknown workload %q", r.Workload)
	}
	switch r.Target {
	case "", "iu":
		r.Target = "iu"
	case "cmem":
	default:
		return r, fmt.Errorf("jobs: unknown target %q (want iu or cmem)", r.Target)
	}
	hasSET, hasTransient := false, false
	if len(r.Models) == 0 {
		// The empty list means the paper's permanent trio, never the
		// transient extensions: widening the default would silently remap
		// every pre-existing content address onto a different campaign.
		names := make([]string, 0, len(rtl.FaultModels()))
		for _, m := range modelOrder {
			if m.model.Transient() {
				continue
			}
			names = append(names, m.name)
		}
		r.Models = names
	} else {
		seen := map[string]bool{}
		for _, name := range r.Models {
			m, err := parseModel(name)
			if err != nil {
				return r, err
			}
			if seen[name] {
				return r, fmt.Errorf("jobs: duplicate fault model %q", name)
			}
			seen[name] = true
			if m.Transient() {
				hasTransient = true
			}
			if m == rtl.SETPulse {
				hasSET = true
			}
		}
	}
	if r.Iterations < 0 || r.Dataset < 0 || r.Nodes < 0 {
		return r, fmt.Errorf("jobs: negative iterations/dataset/nodes")
	}
	// Bound the request's golden-run cost at the validation boundary.
	// (fault.NewRunner's 200M-cycle run budget is the hard stop — a
	// too-long golden run fails the build — but rejecting absurd
	// iteration counts up front avoids burning a build slot discovering
	// that.)
	if r.Iterations > MaxIterations {
		return r, fmt.Errorf("jobs: iterations %d exceeds the limit %d", r.Iterations, MaxIterations)
	}
	// NaN passes both range comparisons and would poison the runner
	// cache (NaN != NaN), so reject non-finite values explicitly.
	if math.IsNaN(r.InjectAtFraction) || math.IsInf(r.InjectAtFraction, 0) ||
		r.InjectAtFraction < 0 || r.InjectAtFraction >= 1 {
		return r, fmt.Errorf("jobs: inject_at_fraction %v outside [0,1)", r.InjectAtFraction)
	}
	if r.InjectAtFraction > 0 {
		// A nonzero fraction overrides the cycle instant in the engine,
		// so a leftover cycle value must not fragment the cache key.
		r.InjectAtCycle = 0
	}
	switch r.Engine {
	case "", "rtl":
		// "rtl" is the default spelled out; canonicalize to the empty
		// string so pre-existing content addresses are untouched.
		r.Engine = ""
		if r.RTLAudit != 0 || r.Confidence != 0 {
			return r, fmt.Errorf("jobs: rtl_audit/confidence require engine \"hybrid\"")
		}
	case "iss":
		if r.RTLAudit != 0 || r.Confidence != 0 {
			return r, fmt.Errorf("jobs: rtl_audit/confidence require engine \"hybrid\"")
		}
	case "hybrid":
		if math.IsNaN(r.RTLAudit) || math.IsInf(r.RTLAudit, 0) || r.RTLAudit < 0 || r.RTLAudit > 1 {
			return r, fmt.Errorf("jobs: rtl_audit %v outside [0,1]", r.RTLAudit)
		}
		if math.IsNaN(r.Confidence) || math.IsInf(r.Confidence, 0) || r.Confidence < 0 || r.Confidence > 1 {
			return r, fmt.Errorf("jobs: confidence %v outside [0,1]", r.Confidence)
		}
		if r.Epsilon > 0 {
			// Adaptive stopping is defined over a single sequential
			// engine; the router's two-phase plan (predict all, then
			// audit) has no meaningful completed-prefix to stop on.
			return r, fmt.Errorf("jobs: epsilon requires engine \"rtl\" or \"iss\"")
		}
		if r.RTLAudit == 0 {
			r.RTLAudit = 0.1
		}
		if r.Confidence == 0 {
			r.Confidence = 0.9
		}
		if r.RTLAudit >= 1 {
			// Auditing every experiment is by definition a pure RTL
			// campaign: every final classification comes from the RTL
			// engine. Collapse the spelling so the content address — and
			// therefore the cached outcome — is byte-identical to the
			// pure RTL request. This is also what pins the hybrid
			// engine's -rtl-audit=1.0 contract.
			r.Engine, r.RTLAudit, r.Confidence = "", 0, 0
		}
	default:
		return r, fmt.Errorf("jobs: unknown engine %q (want rtl, iss or hybrid)", r.Engine)
	}
	if r.Nodes == 0 && !hasTransient && r.Engine != "hybrid" {
		// Exhaustive permanent campaigns never consult the seed, so it
		// must not fragment the cache key. Transient campaigns sample
		// their injection cycles from the seed even when the node set is
		// exhaustive, and the hybrid router draws its audit sample from
		// it unconditionally, so in both those cases it stays.
		r.Seed = 0
	}
	if !hasSET {
		// The pulse width only shapes "set" experiments; without that
		// model it must not fragment the cache key.
		r.PulseCycles = 0
	} else if r.PulseCycles == 0 {
		// Zero means the engine default (a single-cycle glitch); pin it
		// so the spelled-out form hashes identically.
		r.PulseCycles = 1
	} else if r.PulseCycles > fault.MaxPulseCycles {
		return r, fmt.Errorf("jobs: pulse_cycles %d exceeds the limit %d", r.PulseCycles, uint64(fault.MaxPulseCycles))
	}
	// A Wilson half-width never exceeds 0.5, so epsilon at or above it
	// would stop a campaign after its very first experiment — reject the
	// degenerate request rather than cache a one-experiment "campaign".
	// NaN would pass the range checks and poison the content address.
	if math.IsNaN(r.Epsilon) || r.Epsilon < 0 || r.Epsilon >= 0.5 {
		return r, fmt.Errorf("jobs: epsilon %v outside [0,0.5)", r.Epsilon)
	}
	return r, nil
}

// Key returns the request's content address: the SHA-256 hex digest of
// the canonical JSON encoding of the normalized request. JSON struct
// encoding has a fixed field order, so the digest is deterministic.
func (r Request) Key() (string, error) {
	_, key, err := r.keyed()
	return key, err
}

// keyed normalizes a request and returns the normalized form together
// with its content address: what every admission path (Manager.Submit,
// journal recovery, shard planning) needs of a raw request.
func (r Request) keyed() (n Request, key string, err error) {
	if n, err = r.Normalize(); err == nil {
		key, err = keyOf(n)
	}
	return n, key, err
}

// keyOf hashes an already-normalized request.
func keyOf(n Request) (string, error) {
	b, err := json.Marshal(n)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// transient reports whether a normalized request names a transient model.
func (r Request) transient() bool {
	return slices.ContainsFunc(r.Models, func(name string) bool {
		m, _ := parseModel(name) // validated by Normalize
		return m.Transient()
	})
}

func (r Request) target() fault.Target {
	if r.Target == "cmem" {
		return fault.TargetCMEM
	}
	return fault.TargetIU
}

// ExperimentOutcome is one experiment of an Outcome, in campaign order.
type ExperimentOutcome struct {
	Node    string `json:"node"`
	Model   string `json:"model"`
	Unit    string `json:"unit"`
	Outcome string `json:"outcome"`
	Latency int64  `json:"latency"`
	Cycles  uint64 `json:"cycles"`
	// AtCycle is the sampled injection instant of a transient experiment;
	// nil (omitted) for permanent models, whose instant is the request's
	// fixed one — keeping permanent encodings byte-identical to earlier
	// releases. A pointer rather than omitempty-on-zero: an instant
	// legitimately sampled at cycle 0 must still be emitted.
	AtCycle *uint64 `json:"at_cycle,omitempty"`
	// Engine marks which engine produced the final classification of a
	// hybrid campaign's experiment: "iss" (trusted prediction) or "rtl"
	// (audited or escalated). Omitted for single-engine campaigns, so
	// their encodings are unchanged.
	Engine string `json:"engine,omitempty"`
	// Predicted is the ISS-predicted outcome of a hybrid experiment whose
	// final classification came from the RTL engine. Together with
	// Audited it makes every hybrid aggregate — per-class R², audit
	// disagreement rate, corrected interval — recomputable from the
	// experiments array alone, preserving the single-merge-path property
	// shards rely on.
	Predicted string `json:"predicted,omitempty"`
	// Audited marks hybrid experiments in the deterministic RTL-audit
	// sample (as opposed to class escalations, which also run on RTL but
	// carry no fresh information about the router's calibration).
	Audited bool `json:"audited,omitempty"`
}

// Outcome is the deterministic result encoding shared by the job service,
// the HTTP API and `faultcampaign -json`: no timing, no scheduling state,
// only the campaign's content. Identical requests produce byte-identical
// encodings.
type Outcome struct {
	Request      Request `json:"request"`
	Injections   int     `json:"injections"`
	GoldenCycles uint64  `json:"golden_cycles"`
	Checkpointed bool    `json:"checkpointed"`
	// EarlyStopped marks an adaptive campaign that halted once its Wilson
	// half-width reached the request's epsilon; Requested then records the
	// planned experiment count (Injections covers only completed ones).
	// Both fields are omitted from campaigns that ran to completion, so
	// the encoding of a full run is unchanged by their existence.
	EarlyStopped     bool               `json:"early_stopped,omitempty"`
	Requested        int                `json:"requested,omitempty"`
	Pf               float64            `json:"pf"`
	PfLow            float64            `json:"pf_low"`
	PfHigh           float64            `json:"pf_high"`
	Failures         int                `json:"failures"`
	MaxLatencyCycles int64              `json:"max_latency_cycles"`
	Outcomes         map[string]int     `json:"outcomes"`
	PfByUnit         map[string]float64 `json:"pf_by_unit"`
	// Hybrid carries the router's audit-disagreement accounting; present
	// only for engine "hybrid" campaigns.
	Hybrid      *HybridOutcome      `json:"hybrid,omitempty"`
	Experiments []ExperimentOutcome `json:"experiments"`
}

// fillOutcome lays one raw engine result into its wire encoding eo, node its
// experiment's name (fault.NodeInfo.String: printed once per runner). A
// transient's AtCycle and the hybrid fields are left to the caller, which
// keeps its range's instants in one array (runRange).
func fillOutcome(eo *ExperimentOutcome, res *fault.Result, node string) {
	eo.Node, eo.Model, eo.Unit, eo.Outcome = node, res.Fault.Model.String(), res.Unit.String(), res.Outcome.String()
	eo.Latency, eo.Cycles = res.Latency, res.Cycles
}

// noEffect is the one outcome string that does not count as a propagated
// failure; everything else manifests at the off-core boundary.
var noEffect = fault.OutcomeNoEffect.String()

// outcomeHang is the one outcome with no bounded detection instant: a
// hang's latency is left out of MaxLatencyCycles, which is the largest
// latency over the experiments whose fault manifested (Figure 4(b)'s
// metric), and -1 when none did.
var outcomeHang = fault.OutcomeHang.String()

// assembleOutcome builds the canonical result encoding from wire-encoded
// experiments. It is the single merge path shared by unsharded execution,
// the in-process shard pool and remote shard workers: every aggregate —
// Pf, Wilson interval, failure count, per-unit Pf, outcome tallies, max
// latency — is recomputed from the experiment array alone, so any
// partition of a campaign into shards that reassembles the same array
// yields byte-identical output. requested is the planned experiment
// count; when the array is shorter the campaign stopped early and the
// outcome says so.
func assembleOutcome(req Request, goldenCycles uint64, checkpointed bool, requested int, exps []ExperimentOutcome) *Outcome {
	out := &Outcome{
		Request:          req,
		Injections:       len(exps),
		GoldenCycles:     goldenCycles,
		Checkpointed:     checkpointed,
		MaxLatencyCycles: -1,
		Experiments:      exps,
	}
	if len(exps) < requested {
		out.EarlyStopped = true
		out.Requested = requested
	}
	var outcomes, units tally
	for i := range exps {
		e := &exps[i]
		failed := e.Outcome != noEffect
		outcomes.add(e.Outcome, false)
		units.add(e.Unit, failed)
		if failed {
			out.Failures++
		}
		if e.Outcome != outcomeHang && e.Latency > out.MaxLatencyCycles {
			out.MaxLatencyCycles = e.Latency
		}
	}
	if len(exps) > 0 {
		out.Pf = float64(out.Failures) / float64(len(exps))
	}
	out.PfLow, out.PfHigh = stats.WilsonCI(out.Failures, len(exps), stats.Z95)
	out.Outcomes = make(map[string]int, outcomes.size())
	outcomes.each(func(o string, c tallyCount) { out.Outcomes[o] = c.n })
	out.PfByUnit = make(map[string]float64, units.size())
	units.each(func(u string, c tallyCount) { out.PfByUnit[u] = float64(c.fail) / float64(c.n) })
	if req.Engine == "hybrid" {
		out.Hybrid = hybridAccounting(req, out)
	}
	return out
}

// tally counts a campaign's strings — its outcomes, or its units with their
// failures — for assembleOutcome, which builds each map once from it. The
// strings a campaign of this process carries are a handful of constants, so
// the first tallyScan distinct ones are found by a scan of an array that
// lives on the stack (equal constants compare by pointer); the rest — only a
// remote worker's arbitrary strings get there — by a map, so that a tally
// stays linear in the experiments whatever strings arrive.
type tally struct {
	keys [tallyScan]string
	cnt  [tallyScan]tallyCount
	k    int
	more map[string]*tallyCount
}

// tallyScan is more than the outcomes and the functional units there are.
const tallyScan = 16

type tallyCount struct {
	n, fail int
	at      int // the string's first-appearance index, for a caller that keeps one
}

func (t *tally) add(s string, failed bool) {
	c := t.find(s)
	c.n++
	if failed {
		c.fail++
	}
}

// find returns s's count, adding a zero one on s's first appearance.
func (t *tally) find(s string) *tallyCount {
	for i := range t.k {
		if t.keys[i] == s {
			return &t.cnt[i]
		}
	}
	if t.k < tallyScan {
		t.keys[t.k] = s
		t.k++
		return &t.cnt[t.k-1]
	}
	c := t.more[s]
	if c == nil {
		if t.more == nil {
			t.more = map[string]*tallyCount{}
		}
		c = &tallyCount{}
		t.more[s] = c
	}
	return c
}

func (t *tally) size() int { return t.k + len(t.more) }

// each calls f with every string counted and its count, in no fixed order.
func (t *tally) each(f func(string, tallyCount)) {
	for i := range t.k {
		f(t.keys[i], t.cnt[i])
	}
	for s, c := range t.more {
		f(s, *c)
	}
}

// Progress is one incremental snapshot of a running campaign: how many
// experiments have completed and the progressive Pf estimate with its
// Wilson confidence interval over the completed prefix.
type Progress struct {
	JobID    string  `json:"job_id,omitempty"`
	State    State   `json:"state"`
	Done     int     `json:"done"`
	Total    int     `json:"total"`
	Failures int     `json:"failures"`
	Pf       float64 `json:"pf"`
	PfLow    float64 `json:"pf_low"`
	PfHigh   float64 `json:"pf_high"`
}

// Tap receives monotonic progress snapshots from a running campaign. It
// is called serially.
type Tap func(done, total, failures int)

// runnerKey is the normalized request's runner-cache key: the workload,
// its configuration and the engine options that shape its golden run.
func (r Request) runnerKey() runnerKey {
	return runnerKey{
		name: r.Workload,
		cfg:  workloads.Config{Iterations: r.Iterations, Dataset: r.Dataset},
		opts: fault.Options{
			InjectAtCycle:    r.InjectAtCycle,
			InjectAtFraction: r.InjectAtFraction,
			PulseCycles:      r.PulseCycles,
			NoCheckpoint:     r.NoCheckpoint,
		},
	}
}

// engineFor resolves the engine whose golden run describes a normalized
// request's campaign and on which its single-engine experiments run: the
// ISS wrapper for engine "iss" (in its native instruction timebase —
// instants in the request are instruction indices there), the RTL slab
// kernel otherwise. A hybrid campaign is defined on the RTL cycle
// timebase, so its metadata — and its audits and escalations — are the
// RTL engine's; its router drives the ISS side explicitly.
func engineFor(ctx context.Context, n Request, reg *obs.Registry) (fault.CampaignEngine, error) {
	if n.Engine == "iss" {
		return issRunnerFor(ctx, n, reg, 0, 0)
	}
	return runnerFor(ctx, n, reg)
}

// experimentsFor returns the campaign's deterministic experiment
// expansion, written over dst's storage (ExpandInto): the sampled (or
// exhaustive) node set crossed with the requested fault models, in
// canonical order, with every transient experiment's injection cycle
// scheduled from (seed, absolute index). Every shard of a campaign and its
// unsharded execution expand the identical list — instants included —
// which is what makes experiment-index ranges a sound shard currency:
// scheduling happens on the full list before any slicing, never per worker.
func experimentsFor(dst []fault.Experiment, r fault.CampaignEngine, n Request) []fault.Experiment {
	nodes := fault.Nodes(n.target())
	if n.Nodes > 0 && n.Nodes < len(nodes) {
		// The expansion copies each node, so the sample is free again once
		// it is made. (A sample of the whole population is the population,
		// which the runner owns.)
		nodes = fault.SampleNodesInto(samples.take(), nodes, n.Nodes, n.Seed)
		defer samples.keep(nodes)
	}
	models := make([]rtl.FaultModel, len(n.Models))
	for i, name := range n.Models {
		models[i], _ = parseModel(name) // validated by Normalize
	}
	exps := fault.ExpandInto(dst, nodes, models...)
	r.ScheduleTransients(exps, n.Seed)
	return exps
}

// freeList keeps arrays a campaign made and let go of for a later one to
// write over: up to one per processor, as a runner keeps its engines, and
// none larger than maxKeptBytes. An array enters only once nothing reads it
// any more, and nothing an outcome holds points into one; whoever takes one
// zeroes or overwrites what it uses.
type freeList[T any] chan []T

// maxKeptBytes bounds every kept array by size, whatever its element: an
// expansion of 2¹⁵ experiments, 2.4 MB (an exhaustive CMEM campaign's is
// three times that). The seven lists together keep at most seven such
// arrays per processor alive across collections.
const maxKeptBytes = 1 << 15 * unsafe.Sizeof(fault.Experiment{})

func newFreeList[T any]() freeList[T] { return make(freeList[T], runtime.GOMAXPROCS(0)) }

// The free lists: expansions for runRange's own expansion, a whole hybrid
// campaign's plan's and the shard pool's once its campaign's last local
// worker has returned (never a cached plan's, which the cache keeps);
// samples for experimentsFor's node samples; outcomes and indices for the
// output arrays of the pool's local shards, once Complete has folded them
// (rangeEnv.reuse), and indices also for a hybrid range's escalations;
// subsets for the experiment lists of a hybrid plan's audit and of a
// hybrid range's escalations; results and auditMaps for a whole hybrid
// campaign's plan (hybridPlan.release).
var (
	expansions = newFreeList[fault.Experiment]()
	samples    = newFreeList[fault.NodeInfo]()
	outcomes   = newFreeList[ExperimentOutcome]()
	indices    = newFreeList[int]()
	subsets    = newFreeList[fault.Experiment]()
	results    = newFreeList[fault.Result]()
	auditMaps  = newFreeList[int32]()
)

// take returns a kept array, or nil when none is idle.
func (f freeList[T]) take() []T {
	select {
	case s := <-f:
		return s
	default:
		return nil
	}
}

// keep returns an array to f, or drops it to the collector when as many are
// idle as are kept, or it has no storage or too much.
func (f freeList[T]) keep(s []T) {
	if cap(s) == 0 || uintptr(cap(s))*unsafe.Sizeof(s[0]) > maxKeptBytes {
		return
	}
	select {
	case f <- s:
	default:
	}
}

// room returns n elements for a caller that writes every one of them before
// it reads any: over a kept array when reuse is set and one with room is
// idle — as the last campaign left it — fresh otherwise.
func (f freeList[T]) room(n int, reuse bool) []T {
	if reuse {
		if s := f.take(); cap(s) >= n {
			return s[:n]
		}
	}
	return make([]T, n)
}

// zeroed returns n zero elements: over a kept array when reuse is set and
// one with room is idle, fresh otherwise. A kept array is cleared first, so
// nothing of the range that laid it — a hybrid label, a transient's
// instant, an outcome where a stopped range left a slot empty — carries over.
func (f freeList[T]) zeroed(n int, reuse bool) []T {
	if reuse {
		if s := f.take(); cap(s) >= n {
			s = s[:n]
			clear(s)
			return s
		}
	}
	return make([]T, n)
}

// The repository benchmark (bench/, which no PR but a [benchmark] one
// edits) imports Execute, ExecuteObs, ExecuteShard, ExecuteSharded,
// PlanShards, EncodeOutcome, NewManager and OpenManager. Each of those
// Execute* is one call — into runRange, or ExecuteSharded into a
// ShardPool — so what looks like twin entry points is that pinned surface,
// and no twin is left to collapse. ExecuteProgram, a given program's way
// in, builds its engine and then is one call into runRange too.

// Execute runs one campaign request synchronously on the process-wide
// memoized runner cache and returns its canonical outcome. Cancellation
// via ctx stops the engine within one dispatch granule and returns
// ctx.Err(). tap, when non-nil, observes per-experiment completions.
// A request with a nonzero Epsilon stops adaptively once the Wilson
// half-width around the progressive Pf reaches it.
//
// This is the single execution path behind the job service's workers and
// every mode of `faultcampaign`: runRange, over the whole expansion.
// Sharded execution (ShardPool, ExecuteSharded) runs the same driver per
// range and reassembles the same per-experiment array, hence the same
// bytes.
func Execute(ctx context.Context, req Request, workers int, tap Tap) (*Outcome, error) {
	return ExecuteObs(ctx, req, workers, tap, nil)
}

// ExecuteObs is Execute with an optional metrics registry threaded to the
// fault engine's counters. A tracer carried on ctx (obs.WithTracer)
// additionally receives per-stage timings: golden (runner build or cache
// hit), plan (experiment expansion), execute (engine), assemble (outcome
// encoding). With reg == nil and no tracer it is Execute, byte for byte.
func ExecuteObs(ctx context.Context, req Request, workers int, tap Tap, reg *obs.Registry) (*Outcome, error) {
	run, err := runRange(ctx, req, 0, wholeCampaign, rangeEnv{workers: workers, tap: tap, reg: reg, tr: obs.TracerFrom(ctx)})
	if err != nil {
		return nil, err
	}
	return run.outcome, nil
}

// ExecuteProgram runs a campaign on a given program rather than a bundled
// workload — one assembled from source, say. The request's runner options
// build one RTL runner for p, which no cache keeps, and runRange drives it
// as it drives every campaign: for a bundled workload's program the outcome
// is Execute's, byte for byte. req.Workload only labels p in the outcome and
// need not name a bundled workload. A request that sets iterations or
// dataset, which configure a bundled workload's build, or an engine other
// than rtl is rejected; every other field is checked and canonicalized as
// Normalize does.
func ExecuteProgram(ctx context.Context, p *asm.Program, req Request, workers int) (*Outcome, error) {
	if req.Iterations != 0 || req.Dataset != 0 {
		return nil, fmt.Errorf("jobs: iterations/dataset configure a bundled workload, not a given program")
	}
	if req.Engine != "" && req.Engine != "rtl" {
		return nil, fmt.Errorf("jobs: a given program runs on engine \"rtl\" only, not %q", req.Engine)
	}
	label := req.Workload
	if label != "" {
		// Normalize holds the name to the bundled workloads; here it is a
		// label, so a bundled name stands in for it.
		req.Workload = workloads.Names()[0]
	}
	n, err := req.Normalize()
	if err != nil {
		return nil, err
	}
	// A given program has no cache key, and a one-shot campaign must not pin
	// a slot in the runner cache the job service depends on.
	eng, err := fault.NewRunner(p, n.runnerKey().opts) //lint:allow seam one-shot build of a given program, outside the runner cache
	if err != nil {
		return nil, err
	}
	run, err := runRange(ctx, n, 0, wholeCampaign, rangeEnv{workers: workers, eng: eng})
	if err != nil {
		return nil, err
	}
	run.outcome.Request.Workload = label
	return run.outcome, nil
}

// ShardOutput is what one executed experiment-range shard reports back:
// the golden-run metadata (identical across the shards of one campaign —
// the coordinator cross-checks it), the absolute experiment indices that
// completed, and their outcomes. A cancelled or early-stopped shard
// reports the subset it finished; a complete shard reports its full
// range.
type ShardOutput struct {
	GoldenCycles uint64              `json:"golden_cycles"`
	Checkpointed bool                `json:"checkpointed"`
	Indices      []int               `json:"indices"`
	Experiments  []ExperimentOutcome `json:"experiments"`
}

// ExecuteShard runs experiments [start,end) of a campaign's deterministic
// expansion on the process-wide memoized runner cache: the bare range
// execution underneath RunLease, for callers that hold a range rather
// than a lease. On ctx cancellation the partial output of a single-engine
// shard is returned together with ctx.Err() so the caller can still fold
// the completed experiments; a hybrid shard is final only when its whole
// range is resolved, reports nothing partial, and the coordinator
// requeues the full range. tap observes shard-local completions (done
// counts shard experiments, total is the shard size).
func ExecuteShard(ctx context.Context, req Request, start, end, workers int, tap Tap) (*ShardOutput, error) {
	run, err := runRange(ctx, req, start, end, rangeEnv{workers: workers, tap: tap})
	return run.out, err
}

// rangeEnv is what a caller of runRange brings besides the request and
// the range: scheduling and observation, none of it content.
type rangeEnv struct {
	workers int
	tap     Tap
	reg     *obs.Registry
	// tr receives the four stage timings. Only whole-campaign callers set
	// it; a nil tracer is a no-op.
	tr *obs.Tracer
	// exps, when non-nil, is the single-engine campaign's expansion —
	// experimentsFor of this very request, made once by whoever planned the
	// campaign — and is only read. Nil has runRange expand.
	exps []fault.Experiment
	// eng, when non-nil, is the RTL engine the request runs on — a given
	// program's, which no cache keeps (ExecuteProgram). Nil has runRange
	// resolve the request's engine from the runner caches.
	eng fault.CampaignEngine
	// reuse lays the range's output over kept arrays (outcomes, indices):
	// the caller hands them back with recycle once it has read them, and
	// nothing else keeps them. Only the shard pool's local workers set it.
	reuse bool
}

// wholeCampaign, as runRange's end, runs the expansion from start to its
// last experiment as one campaign rather than one shard of one: the tap
// is told the total up front, the request's epsilon stop rule applies
// (within a shard the coordinator owns stopping, across all shards), and
// the canonical outcome is assembled.
const wholeCampaign = -1

// rangeRun is what runRange produced: the range's shard output and, for a
// whole campaign, the outcome assembled from it.
type rangeRun struct {
	out     *ShardOutput
	outcome *Outcome
}

// runRange is the package's one campaign driver: it resolves a request to
// its engine — or, hybrid, to its routing plan — expands the
// deterministic experiment list, runs the experiments of [start,end)
// that need an engine, and lays the range's outcomes in index order.
// Every execution surface is this function over some range: Execute over
// the whole expansion, shard workers over their leases.
//
// The range's outcome array is made once, one slot per experiment, and the
// worker that resolves an experiment lays its wire record into its slot
// (the engine's sink): nothing is collected and copied after the run. A
// range that ran to the end is the array as laid — a shard's indices are
// its range — and only a stopped or cancelled one is compacted to the
// experiments that ran, their indices listed.
//
// A single-engine range needs the engine for every experiment, and a
// cancelled one still reports what completed, with ctx.Err(). A hybrid
// range needs it only for experiments in escalated classes that the plan
// did not already audit — predictions and audits live in the plan — and
// reports nothing unless the whole range resolved.
func runRange(ctx context.Context, req Request, start, end int, env rangeEnv) (rangeRun, error) {
	n, err := req.Normalize()
	if err != nil {
		return rangeRun{}, err
	}
	whole := end == wholeCampaign
	endStage := env.tr.Stage("golden")
	eng := env.eng
	var plan *hybridPlan
	switch {
	case eng != nil:
	case n.Engine == "hybrid":
		// A whole campaign's plan is its own, over the free lists' arrays,
		// handed back when the campaign returns; the cache serves the ranges
		// of sharded campaigns, whose shards share one build.
		if whole {
			plan, err = planHybrid(ctx, n, env.workers, env.reg, true)
			defer plan.release()
		} else {
			plan, err = hybridPlanFor(ctx, n, env.workers, env.reg)
		}
		if err == nil {
			eng = plan.rtl
		}
	default:
		eng, err = engineFor(ctx, n, env.reg)
	}
	endStage()
	if err != nil {
		return rangeRun{}, err
	}
	endStage = env.tr.Stage("plan")
	exps := env.exps
	if plan != nil {
		exps = plan.exps
	} else if exps == nil {
		exps = experimentsFor(expansions.take(), eng, n)
		defer expansions.keep(exps)
	}
	endStage()
	if whole {
		end = len(exps)
	}
	if start < 0 || end > len(exps) || start > end {
		return rangeRun{}, fmt.Errorf("jobs: shard range [%d,%d) outside campaign of %d experiments", start, end, len(exps))
	}

	// run is what the engine executes: the range itself, or a hybrid range's
	// escalations, idx their absolute indices (ascending either way).
	run := exps[start:end]
	var idx []int
	if plan != nil {
		idx, run = plan.escalations(start, end)
		defer indices.keep(idx)
		defer subsets.keep(run)
	}
	size := end - start
	so := &ShardOutput{
		GoldenCycles: eng.GoldenTicks(),
		Checkpointed: eng.Checkpointed(),
		Experiments:  outcomes.zeroed(size, env.reuse),
	}
	var instants []uint64 // the range's transient instants, which their outcomes point into
	if n.transient() {
		instants = make([]uint64, size)
	}
	// count tells the tap of every completion; nil without one, so that the
	// workers take no lock per experiment for nobody.
	var count func(res *fault.Result)
	if env.tap != nil {
		var mu sync.Mutex
		done, failures := 0, 0
		count = func(res *fault.Result) {
			mu.Lock()
			done++
			if res.Outcome.IsFailure() {
				failures++
			}
			env.tap(done, size, failures)
			mu.Unlock()
		}
	}
	var stop func(done, failures int) bool
	if whole {
		if env.tap != nil {
			env.tap(0, size, 0)
		}
		if n.Epsilon > 0 {
			stop = func(done, failures int) bool {
				return progressTally{Done: done, Failures: failures}.Converged(n.Epsilon, stats.Z95)
			}
		}
	}
	// sink runs on the worker that resolved run[j]: each writes its own slot.
	sink := func(j int, res *fault.Result) {
		if plan == nil {
			so.lay(j, res, run[j].Node.String(), instants)
		} else {
			i := idx[j]
			eo := so.lay(i-start, res, run[j].Node.String(), instants)
			eo.Engine, eo.Predicted = "rtl", plan.pred[i].Outcome.String()
		}
		if count != nil {
			count(res)
		}
	}
	endStage = env.tr.Stage("execute")
	err = eng.CampaignSink(ctx, run, env.workers, sink, stop)
	endStage()
	if err != nil && plan != nil {
		return rangeRun{}, err
	}
	if plan != nil {
		newRouterMetrics(env.reg).experiments.With("rtl").Add(float64(len(run)))
	}

	defer env.tr.Stage("assemble")()
	if plan != nil {
		// The experiments the plan resolved, counted as they are laid (the
		// engine-run ones were counted live).
		for i, j := start, 0; i < end; i++ {
			if j < len(idx) && idx[j] == i {
				j++
				continue
			}
			res := plan.result(i)
			plan.label(so.lay(i-start, res, exps[i].Node.String(), instants), i)
			if count != nil {
				count(res)
			}
		}
	}
	switch {
	case err != nil || stop != nil:
		so.compact(start, env.reuse)
	case !whole:
		so.Indices = indices.zeroed(size, env.reuse)
		for k := range so.Indices {
			so.Indices[k] = start + k
		}
	}
	if !whole || err != nil {
		return rangeRun{out: so}, err
	}
	return rangeRun{so, assembleOutcome(n, so.GoldenCycles, so.Checkpointed, len(exps), so.Experiments)}, nil
}

// recycle hands the output's arrays to the free lists, for the next range
// run with rangeEnv.reuse. Its caller reads the output no more: whatever it
// was folded into copied it.
func (so *ShardOutput) recycle() {
	outcomes.keep(so.Experiments)
	indices.keep(so.Indices)
}

// lay writes an experiment's outcome into slot k, filled from res, and a
// transient's instant into instants[k], where the outcome points; it returns
// the outcome for the hybrid fields.
func (so *ShardOutput) lay(k int, res *fault.Result, node string, instants []uint64) *ExperimentOutcome {
	eo := &so.Experiments[k]
	fillOutcome(eo, res, node)
	if res.Fault.Model.Transient() {
		instants[k] = res.InjectAt
		eo.AtCycle = &instants[k]
	}
	return eo
}

// compact closes up the slots of the experiments a stop or cancellation
// kept from running — a laid slot always has an outcome — and lists the
// absolute indices of those that ran, start being the first slot's, over a
// kept array when reuse is set.
func (so *ShardOutput) compact(start int, reuse bool) {
	ran := so.Experiments[:0]
	so.Indices = indices.zeroed(len(so.Experiments), reuse)[:0]
	for k := range so.Experiments {
		if so.Experiments[k].Outcome != "" {
			so.Indices = append(so.Indices, start+k)
			ran = append(ran, so.Experiments[k])
		}
	}
	so.Experiments = ran
}
