package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
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

// TestFailedPlanLeavesLaterEntryAlone: an owner whose build fails removes
// its own cache entry, not whatever sits under its key by then. Owner A is
// still building when eight other plans evict its entry; B asks for the
// same key, finds nothing and builds a live plan; then A fails. B's entry
// must survive, so the next caller — another shard of B's campaign — is a
// hit and not a rebuild of the ISS pass and the audit.
func TestFailedPlanLeavesLaterEntryAlone(t *testing.T) {
	reset := func() {
		planCache.mu.Lock()
		planCache.m, planCache.order = nil, nil
		planCache.mu.Unlock()
	}
	reset()
	t.Cleanup(reset)
	ctx := context.Background()
	building, fail := make(chan struct{}), make(chan struct{})
	aDone := make(chan error)
	go func() {
		_, err := cachedPlan(ctx, "key", func() (*hybridPlan, error) {
			close(building)
			<-fail
			return nil, errors.New("cancelled")
		})
		aDone <- err
	}()
	<-building
	for i := 0; i < maxPlans; i++ {
		if _, err := cachedPlan(ctx, fmt.Sprint("other-", i), func() (*hybridPlan, error) { return &hybridPlan{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	live := &hybridPlan{}
	if got, err := cachedPlan(ctx, "key", func() (*hybridPlan, error) { return live, nil }); err != nil || got != live {
		t.Fatalf("B's build: plan %p, err %v; want its own plan %p (A's entry should have been evicted)", got, err, live)
	}
	close(fail)
	if err := <-aDone; err == nil {
		t.Fatal("A's failed build returned no error")
	}
	got, err := cachedPlan(ctx, "key", func() (*hybridPlan, error) {
		t.Error("B's second call rebuilt the plan: A's failure removed B's live entry")
		return &hybridPlan{}, nil
	})
	if err != nil || got != live {
		t.Errorf("B's second call: plan %p, err %v; want the cached %p", got, err, live)
	}
}

// joinedCtx is a live context that reports when cachedPlan first waits on
// it: the select that asks for Done is where a waiter has joined an entry.
type joinedCtx struct {
	context.Context
	once   sync.Once
	joined chan struct{}
}

func (c *joinedCtx) Done() <-chan struct{} {
	c.once.Do(func() { close(c.joined) })
	return c.Context.Done()
}

// TestPlanWaiterOutlivesCancelledOwner: a user cancels a hybrid job and
// resubmits it while the cancelled job is still building the plan. The
// fresh job joins that build; when the owner's context is cancelled, the
// fresh job, which nobody cancelled, must get a plan — built by itself or
// joined live — and not the owner's context.Canceled.
func TestPlanWaiterOutlivesCancelledOwner(t *testing.T) {
	reset := func() {
		planCache.mu.Lock()
		planCache.m, planCache.order = nil, nil
		planCache.mu.Unlock()
	}
	reset()
	t.Cleanup(reset)
	ownerCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	building := make(chan struct{})
	ownerDone := make(chan error)
	go func() {
		_, err := cachedPlan(ownerCtx, "key", func() (*hybridPlan, error) {
			close(building)
			<-ownerCtx.Done()
			return nil, ownerCtx.Err()
		})
		ownerDone <- err
	}()
	<-building
	waiter := &joinedCtx{Context: context.Background(), joined: make(chan struct{})}
	live := &hybridPlan{}
	type reply struct {
		plan *hybridPlan
		err  error
	}
	waiterDone := make(chan reply)
	go func() {
		p, err := cachedPlan(waiter, "key", func() (*hybridPlan, error) { return live, nil })
		waiterDone <- reply{p, err}
	}()
	<-waiter.joined
	cancel()
	if err := <-ownerDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("owner: err %v, want context.Canceled", err)
	}
	if r := <-waiterDone; r.err != nil || r.plan != live {
		t.Fatalf("waiter with a live context: plan %p, err %v; want its own plan %p, not another caller's cancellation", r.plan, r.err, live)
	}
}

// The routing contract, end to end: every experiment's final engine is
// consistent with the audit sample and the per-class escalation
// verdicts reported in the outcome, and the hybrid accounting is
// internally consistent with the experiments array.
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
}

// checkRoutingContract fails t unless out keeps the routing contract:
// ISS-trusted experiments sit in trusted classes and carry no audit
// fields, unaudited RTL ones sit in escalated classes, every RTL one carries
// its prediction, the accounting recounts and the corrected interval
// contains the Wilson one.
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
	iss, rtl, audited := 0, 0, 0
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
			} else if !escalated[e.Unit] {
				t.Fatalf("experiment %d: unaudited RTL entry in trusted class %s", i, e.Unit)
			}
		default:
			t.Fatalf("experiment %d: engine %q", i, e.Engine)
		}
	}
	if iss != h.ISSExperiments || rtl != h.RTLExperiments || audited != h.Audited {
		t.Fatalf("accounting (%d,%d,%d) != recount (%d,%d,%d)",
			h.ISSExperiments, h.RTLExperiments, h.Audited, iss, rtl, audited)
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
	if got := hand.escalations(0, 2); len(got) != 2 {
		t.Errorf("a plan that escalated unit %d owes RTL runs for %v of a pair with units %d and %d, want both", a, got, a, b)
	}
}
