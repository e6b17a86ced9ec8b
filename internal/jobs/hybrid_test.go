package jobs_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"maps"
	"strconv"
	"strings"
	"testing"

	"repro/internal/jobs"
	"repro/internal/obs"
)

// hybridSmall is a cheap real hybrid campaign: three permanent models
// over a 12-node sample, with a high audit fraction so every class
// collects a judgeable sample.
var hybridSmall = jobs.Request{
	Workload:         "excerptA",
	Models:           []string{"sa0", "sa1", "open"},
	Nodes:            12,
	Seed:             3,
	InjectAtFraction: 0.3,
	Engine:           "hybrid",
	RTLAudit:         0.5,
}

func TestHybridNormalize(t *testing.T) {
	n, err := hybridSmall.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Engine != "hybrid" || n.RTLAudit != 0.5 || n.Confidence != 0.9 {
		t.Fatalf("normalized hybrid = engine %q audit %v confidence %v", n.Engine, n.RTLAudit, n.Confidence)
	}
	// Defaults pinned under hybrid.
	n2, err := jobs.Request{Workload: "excerptA", Engine: "hybrid"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n2.RTLAudit != 0.1 || n2.Confidence != 0.9 {
		t.Fatalf("hybrid defaults = audit %v confidence %v, want 0.1/0.9", n2.RTLAudit, n2.Confidence)
	}
	// The audit sample is seed-keyed, so an exhaustive permanent hybrid
	// campaign must keep its seed.
	n3, err := jobs.Request{Workload: "excerptA", Engine: "hybrid", Seed: 7}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n3.Seed != 7 {
		t.Fatalf("hybrid normalization dropped the seed: %d", n3.Seed)
	}
	for _, bad := range []jobs.Request{
		{Workload: "excerptA", Engine: "gatesim"},
		{Workload: "excerptA", RTLAudit: 0.5},                     // audit without hybrid
		{Workload: "excerptA", Engine: "iss", Confidence: 0.5},    // confidence without hybrid
		{Workload: "excerptA", Engine: "hybrid", RTLAudit: -0.1},  // out of range
		{Workload: "excerptA", Engine: "hybrid", Confidence: 1.5}, // out of range
		{Workload: "excerptA", Engine: "hybrid", Epsilon: 0.01},   // adaptive + hybrid
	} {
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted an invalid request", bad)
		}
	}
}

// Auditing everything is a pure RTL campaign: the request must collapse
// to the pure-RTL spelling — same content address, and therefore a
// byte-identical outcome.
func TestHybridFullAuditIsPureRTL(t *testing.T) {
	full := hybridSmall
	full.RTLAudit = 1.0
	pure := hybridSmall
	pure.Engine, pure.RTLAudit = "", 0

	kf, err := full.Key()
	if err != nil {
		t.Fatal(err)
	}
	kp, err := pure.Key()
	if err != nil {
		t.Fatal(err)
	}
	if kf != kp {
		t.Fatalf("rtl_audit=1.0 hybrid key %s != pure RTL key %s", kf, kp)
	}

	of, err := jobs.Execute(context.Background(), full, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	op, err := jobs.Execute(context.Background(), pure, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, of), encode(t, op)) {
		t.Fatal("rtl_audit=1.0 hybrid outcome differs from pure RTL outcome")
	}
	if of.Hybrid != nil {
		t.Fatal("collapsed full-audit campaign still carries hybrid accounting")
	}
}

// Sharded hybrid campaigns must be byte-identical to unsharded ones:
// the routing plan is a pure function of the request, the audit sample
// of (seed, absolute index).
func TestHybridShardedMatchesUnsharded(t *testing.T) {
	ctx := context.Background()
	un, err := jobs.Execute(ctx, hybridSmall, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	sh, err := jobs.ExecuteSharded(ctx, hybridSmall, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, un), encode(t, sh)) {
		t.Fatal("sharded hybrid outcome differs from unsharded")
	}
}

// hybridAtResetSHA256 is the sha256 of hybridAtReset's encoded outcome as
// the engine produced it while instant-0 campaigns still simulated every
// RTL experiment scalar from reset (commit 699cce9).
const hybridAtResetSHA256 = "9572bf5baaca9308ccd1d09e4ee4d2e4f107e1524cef626280255ff5c6bcc4fe"

// At injection instant 0 — the default, and the instant every hybrid
// audit and escalation runs at — the RTL side forks from a reset-state
// rung 0, batches and heals like any other campaign. The bytes must not
// notice: unsharded == sharded == what the from-reset engine encoded,
// `"checkpointed": false` included.
func TestHybridInstantZeroBytes(t *testing.T) {
	req := hybridSmall
	req.InjectAtFraction = 0
	req.Models = []string{"sa0", "sa1", "open", "seu", "set"}
	ctx := context.Background()
	un, err := jobs.Execute(ctx, req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if un.Checkpointed {
		t.Error("instant-0 outcome encodes checkpointed=true: the wire field is frozen")
	}
	sh, err := jobs.ExecuteSharded(ctx, req, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	unb := encode(t, un)
	if !bytes.Equal(unb, encode(t, sh)) {
		t.Fatal("sharded instant-0 hybrid outcome differs from unsharded")
	}
	sum := sha256.Sum256(unb)
	if got := hex.EncodeToString(sum[:]); got != hybridAtResetSHA256 {
		t.Fatalf("instant-0 hybrid outcome bytes changed: sha256 %s, pinned %s", got, hybridAtResetSHA256)
	}
}

// The pure ISS engine is a first-class backend: same expansion, its own
// timebase, deterministic outcomes.
func TestISSEngineExecute(t *testing.T) {
	req := small
	req.Engine = "iss"
	out, err := jobs.Execute(context.Background(), req, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	rtlOut, err := jobs.Execute(context.Background(), small, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out.Injections != rtlOut.Injections {
		t.Fatalf("ISS expansion %d != RTL expansion %d", out.Injections, rtlOut.Injections)
	}
	if out.Hybrid != nil {
		t.Fatal("pure ISS campaign carries hybrid accounting")
	}
	if out.Request.Engine != "iss" {
		t.Fatalf("outcome request engine = %q", out.Request.Engine)
	}
	for _, e := range out.Experiments {
		if e.Engine != "" || e.Predicted != "" || e.Audited {
			t.Fatal("single-engine campaign rows must not carry hybrid fields")
		}
	}
	again, err := jobs.Execute(context.Background(), req, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, out), encode(t, again)) {
		t.Fatal("ISS campaign not deterministic across worker counts")
	}
	// The engine participates in the content address.
	ki, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	kr, err := small.Key()
	if err != nil {
		t.Fatal(err)
	}
	if ki == kr {
		t.Fatal("iss and rtl requests share a content address")
	}
	if !strings.Contains(string(encode(t, out)), `"engine": "iss"`) {
		t.Fatal("outcome request encoding omits the engine")
	}
}

// routerDecisionsWant is what router_decisions_total reads after
// routerDecisionsReq's plan, as the router counted it one experiment at a
// time.
var routerDecisionsWant = map[string]float64{"audit": 40, "escalate": 97, "trust": 7}

// routerDecisionsReq is a hybrid campaign that takes all three decisions,
// under a seed no other test plans with: a plan is cached by content address,
// and a cached one counts nothing again.
var routerDecisionsReq = jobs.Request{Workload: "excerptA", Models: []string{"sa0", "sa1", "open"}, Nodes: 48, Seed: 41,
	InjectAtFraction: 0.3, Engine: "hybrid", RTLAudit: 0.3, Confidence: 0.3}

// TestRouterDecisionsCountedPerPlan: the router's decisions, counted into a
// registry once per plan, sum to the campaign's experiments and read what
// counting each experiment read.
func TestRouterDecisionsCountedPerPlan(t *testing.T) {
	reg := obs.NewRegistry()
	out, err := jobs.ExecuteObs(context.Background(), routerDecisionsReq, 2, nil, reg)
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := reg.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	got, sum := map[string]float64{}, 0.0
	for _, line := range strings.Split(sb.String(), "\n") {
		name, val, _ := strings.Cut(line, " ")
		if label, ok := strings.CutPrefix(name, `router_decisions_total{decision="`); ok {
			v, err := strconv.ParseFloat(val, 64)
			if err != nil {
				t.Fatalf("metric line %q: %v", line, err)
			}
			got[strings.TrimSuffix(label, `"}`)] = v
			sum += v
		}
	}
	t.Logf("decisions %v over %d experiments", got, out.Injections)
	if sum != float64(out.Injections) || !maps.Equal(got, routerDecisionsWant) {
		t.Errorf("router_decisions_total %v over %d experiments, want %v", got, out.Injections, routerDecisionsWant)
	}
}
