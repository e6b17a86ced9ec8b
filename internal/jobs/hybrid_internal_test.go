package jobs

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// Table-driven router decision tests: the per-class escalation verdict
// is the router's whole routing rule, shared verbatim between the
// planner and the outcome accounting.
func TestEscalateClass(t *testing.T) {
	agree8 := make([]bool, 8)
	for i := range agree8 {
		agree8[i] = i%2 == 0
	}
	inverted := make([]bool, 8)
	for i := range agree8 {
		inverted[i] = !agree8[i]
	}
	uncorrelated := []bool{true, true, false, false}
	cases := []struct {
		name       string
		pred, meas []bool
		confidence float64
		want       bool
	}{
		{"confident class trusted", agree8, agree8, 0.9, false},
		{"uncorrelated class escalates", uncorrelated, []bool{true, false, true, false}, 0.9, true},
		{"no audits escalates", nil, nil, 0.9, true},
		{"one audit escalates even when agreeing", []bool{true}, []bool{true}, 0.9, true},
		{"two agreeing audits suffice", []bool{true, false}, []bool{true, false}, 0.9, false},
		{"zero confidence still distrusts zero R2", uncorrelated, []bool{true, false, true, false}, 0.1, true},
		{"anticorrelated prediction has R2 1", agree8, inverted, 0.9, false},
		{"perfect agreement at full confidence", agree8, agree8, 1.0, false},
		{"one disagreement at full confidence", agree8, append(append([]bool{}, agree8[:7]...), !agree8[7]), 1.0, true},
	}
	for _, c := range cases {
		if got := escalateClass(c.pred, c.meas, c.confidence); got != c.want {
			t.Errorf("%s: escalateClass = %v, want %v", c.name, got, c.want)
		}
	}
}

// The routing contract, end to end: every experiment's final engine is
// consistent with the audit sample and the per-class escalation
// verdicts reported in the outcome, and the hybrid accounting is
// internally consistent with the experiments array. A whole campaign
// builds its plan for itself and leaves none in the plan cache; the same
// campaign sharded — equal to it — caches the plan its shards share, and
// ForgetRunners empties the cache. A second campaign whose node sample
// overlaps the first, run on the runners the first left warm, is
// byte-identical to the same campaign run cold.
func TestHybridRoutingContract(t *testing.T) {
	req := Request{Workload: "excerptA", Models: []string{"sa0", "sa1", "open"}, Nodes: 12, Seed: 3,
		InjectAtFraction: 0.3, Engine: "hybrid", RTLAudit: 0.5}
	out, err := Execute(context.Background(), req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkRoutingContract(t, out)
	if out.Hybrid.Audited == 0 {
		t.Fatal("audit fraction 0.5 selected nothing")
	}
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	key, err := keyOf(n)
	if err != nil {
		t.Fatal(err)
	}
	planCached := func() bool {
		planCache.mu.Lock()
		defer planCache.mu.Unlock()
		return planCache.m[key] != nil
	}
	if planCached() {
		t.Error("a whole campaign left its plan in the plan cache")
	}
	sharded, err := ExecuteSharded(context.Background(), req, 3, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sharded, out) {
		t.Error("the campaign in 3 shards differs from it whole")
	}
	cached := planCached()
	// The same seed draws the first campaign's 12 nodes first.
	overlap := req
	overlap.Nodes = 36
	warm := encodedOutcome(t, overlap)
	ForgetRunners()
	planCache.mu.Lock()
	left := len(planCache.m)
	planCache.mu.Unlock()
	if !cached || left != 0 {
		t.Errorf("sharded campaign's plan cached: %v, plans left after ForgetRunners: %d; want true and 0", cached, left)
	}
	if cold := encodedOutcome(t, overlap); !bytes.Equal(warm, cold) {
		t.Errorf("overlapping hybrid campaign on warm runners differs from the same campaign cold (%d vs %d bytes)", len(warm), len(cold))
	}
}

// encodedOutcome executes req on 4 workers and returns its encoded outcome.
func encodedOutcome(t *testing.T, req Request) []byte {
	t.Helper()
	out, err := Execute(context.Background(), req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := EncodeOutcome(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkRoutingContract fails t unless out keeps the routing contract:
// ISS-trusted experiments sit in trusted classes and carry no audit
// fields, unaudited RTL ones sit in escalated classes, every RTL one carries
// its prediction, the accounting recounts — disagreements included, on the
// failure indicator — and the corrected interval contains the Wilson one.
func checkRoutingContract(t *testing.T, out *Outcome) {
	t.Helper()
	h := out.Hybrid
	if h == nil {
		t.Fatal("hybrid campaign without hybrid accounting")
	}
	if h.ISSExperiments+h.RTLExperiments != out.Injections {
		t.Fatalf("engine partition %d+%d != %d injections", h.ISSExperiments, h.RTLExperiments, out.Injections)
	}
	escalated := map[string]bool{}
	for _, c := range h.Classes {
		escalated[c.Unit] = c.Escalated
	}
	noEffect := fault.OutcomeNoEffect.String()
	iss, rtl, audited, disagreements := 0, 0, 0, 0
	for i, e := range out.Experiments {
		switch e.Engine {
		case "iss":
			iss++
			if e.Audited || e.Predicted != "" {
				t.Fatalf("experiment %d: ISS-trusted entry carries audit fields", i)
			}
			if escalated[e.Unit] {
				t.Fatalf("experiment %d: ISS-trusted entry in escalated class %s", i, e.Unit)
			}
		case "rtl":
			rtl++
			if e.Predicted == "" {
				t.Fatalf("experiment %d: RTL entry without its ISS prediction", i)
			}
			if e.Audited {
				audited++
				// A predicted mismatch audited as a hang is still a
				// correctly predicted failure.
				if (e.Predicted != noEffect) != (e.Outcome != noEffect) {
					disagreements++
				}
			} else if !escalated[e.Unit] {
				t.Fatalf("experiment %d: unaudited RTL entry in trusted class %s", i, e.Unit)
			}
		default:
			t.Fatalf("experiment %d: engine %q", i, e.Engine)
		}
	}
	if iss != h.ISSExperiments || rtl != h.RTLExperiments || audited != h.Audited || disagreements != h.Disagreements {
		t.Fatalf("accounting (%d,%d,%d,%d) != recount (%d,%d,%d,%d)",
			h.ISSExperiments, h.RTLExperiments, h.Audited, h.Disagreements, iss, rtl, audited, disagreements)
	}
	if h.CorrectedPfLow > out.PfLow || h.CorrectedPfHigh < out.PfHigh {
		t.Fatalf("corrected interval [%v,%v] narrower than Wilson [%v,%v]",
			h.CorrectedPfLow, h.CorrectedPfHigh, out.PfLow, out.PfHigh)
	}
}

// TestRouterByUnitMatchesByName: the plan keeps its class state by unit,
// the outcome's accounting groups experiments by the unit's printed name,
// and the two must be one grouping. Over fresh seeds, both targets and
// three workloads, every plan keeps the routing contract and every class
// the outcome reports is escalated exactly when the plan escalated its
// unit. Units past sparc.NumUnits all print "unit?": a hand-built pair of
// them is one class of the plan, and each unit in range is its own.
func TestRouterByUnitMatchesByName(t *testing.T) {
	ctx := context.Background()
	trusted, escalated := 0, 0
	for _, target := range []string{"iu", "cmem"} {
		for _, w := range []string{"puwmod", "rspeed", "membench"} {
			for k := range 16 {
				// Audit fraction and threshold vary with the seed, so that
				// classes of one plan land on both sides of the rule.
				req := Request{Workload: w, Iterations: 1, Target: target, Engine: "hybrid", Nodes: 48, Seed: int64(4101 + k),
					RTLAudit: []float64{0.1, 0.3, 0.6}[k%3], Confidence: []float64{0.9, 0.5, 0.2, 0.05}[k%4]}
				out, err := Execute(ctx, req, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkRoutingContract(t, out)
				n, err := req.Normalize()
				if err != nil {
					t.Fatal(err)
				}
				plan, err := hybridPlanFor(ctx, n, 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				byName := map[string]bool{}
				for _, e := range plan.exps {
					byName[e.Node.Unit.String()] = plan.escalated[classOf(e.Node.Unit)]
				}
				if len(byName) != len(out.Hybrid.Classes) {
					t.Fatalf("%s/%s seed %d: the plan's experiments are in %d units, the outcome reports %d classes",
						target, w, req.Seed, len(byName), len(out.Hybrid.Classes))
				}
				for _, c := range out.Hybrid.Classes {
					if want, ok := byName[c.Unit]; !ok || c.Escalated != want {
						t.Fatalf("%s/%s seed %d: class %s reports escalated=%v, the plan decided %v (known %v)",
							target, w, req.Seed, c.Unit, c.Escalated, want, ok)
					}
					if c.Escalated {
						escalated++
					} else {
						trusted++
					}
				}
			}
		}
	}
	t.Logf("%d classes trusted, %d escalated", trusted, escalated)
	if trusted == 0 || escalated == 0 {
		t.Errorf("the sweep decided every class one way (%d trusted, %d escalated): it tells nothing apart", trusted, escalated)
	}

	for u := range sparc.NumUnits {
		for v := range u {
			if classOf(u) == classOf(v) {
				t.Errorf("units %s and %s share a class slot", u, v)
			}
		}
	}
	a, b := sparc.NumUnits, sparc.Unit(200)
	if a.String() != b.String() || classOf(a) != classOf(b) {
		t.Fatalf("units %d and %d print %q and %q and take slots %d and %d: want one class", a, b, a, b, classOf(a), classOf(b))
	}
	hand := &hybridPlan{
		exps: []fault.Experiment{
			{Node: fault.NodeInfo{Node: rtl.Node{Name: "hand.a"}, Unit: a}},
			{Node: fault.NodeInfo{Node: rtl.Node{Name: "hand.b"}, Unit: b}},
		},
		auditAt: []int32{-1, -1},
	}
	hand.escalated[classOf(a)] = true
	if got, _ := hand.escalations(0, 2); len(got) != 2 {
		t.Errorf("a plan that escalated unit %d owes RTL runs for %v of a pair with units %d and %d, want both", a, got, a, b)
	}
}

func TestIndicatorR2(t *testing.T) {
	cases := []struct {
		name       string
		pred, meas []bool
		want       float64
	}{
		{"perfect agreement", []bool{true, false, true, false}, []bool{true, false, true, false}, 1},
		{"perfect anticorrelation", []bool{true, false, true, false}, []bool{false, true, false, true}, 1},
		{"no information", []bool{true, true, false, false}, []bool{true, false, true, false}, 0},
		{"constant agreeing", []bool{true, true, true}, []bool{true, true, true}, 1},
		{"constant disagreeing once", []bool{false, false, false}, []bool{false, true, false}, 0},
		{"constant predictor varying measurement", []bool{true, true, true, true}, []bool{true, false, true, true}, 0},
		{"empty", nil, nil, 0},
		{"length mismatch", []bool{true}, []bool{true, false}, 0},
		{"single agreeing pair", []bool{true}, []bool{true}, 1},
	}
	for _, c := range cases {
		if got := indicatorR2(c.pred, c.meas); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s: indicatorR2 = %v, want %v", c.name, got, c.want)
		}
	}
	// Three-of-four agreement: R² equals the squared Pearson correlation
	// of the indicators, strictly between 0 and 1.
	r2 := indicatorR2([]bool{true, true, false, false}, []bool{true, false, false, false})
	if r2 <= 0 || r2 >= 1 {
		t.Errorf("partial agreement R2 = %v, want in (0,1)", r2)
	}
}
