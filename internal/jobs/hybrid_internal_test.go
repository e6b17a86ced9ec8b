package jobs

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
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
