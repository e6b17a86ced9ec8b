package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workloads"
)

// TestRunnerCacheMemoizes pins the process-wide golden-run reuse: the
// same (workload, config, runner options) key must yield the same cached
// runner — one golden run and one checkpoint per process, shared across
// every figure and request — while a different config or engine option
// builds its own.
func TestRunnerCacheMemoizes(t *testing.T) {
	ctx := context.Background()
	cfg := workloads.Config{Iterations: 2}
	fopts := fault.Options{InjectAtFraction: 0.05}
	a, err := RunnerFor(ctx, "rspeed", cfg, fopts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunnerFor(ctx, "rspeed", cfg, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("identical key rebuilt the runner (golden run re-simulated)")
	}
	c, err := RunnerFor(ctx, "rspeed", workloads.Config{Iterations: 4}, fopts)
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different iteration count shared a runner")
	}
	d, err := RunnerFor(ctx, "rspeed", cfg, fault.Options{InjectAtFraction: 0.05, NoCheckpoint: true})
	if err != nil {
		t.Fatal(err)
	}
	if d == a {
		t.Error("NoCheckpoint shared a checkpointed runner")
	}
}

// TestOnceCache holds the memo's policy on a fake build with the runner
// caches' bound: entries are evicted least-recently-used at maxRunners, a
// failed build is every waiter's failure and stays cached, N concurrent
// lookups of a key build it once, a lookup whose context ends returns at
// once while its build goes on to fill the entry, and a build that ends
// in its own context's error is dropped, so a live caller builds again.
func TestOnceCache(t *testing.T) {
	ctx := context.Background()
	const ctxKey = maxRunners + 2 // its build ends with its context, when that can end
	var builds [maxRunners + 3]atomic.Int32
	gate := map[int]chan struct{}{} // a key's build waits for its gate to close
	errBad := errors.New("bad key")
	c := &onceCache[int, *obs.Registry, int]{limit: maxRunners, build: func(ctx context.Context, k int, _ *obs.Registry) (int, error) {
		builds[k].Add(1)
		if g := gate[k]; g != nil {
			<-g
		}
		if k == 0 {
			return 0, errBad
		}
		if k == ctxKey && ctx.Done() != nil {
			<-ctx.Done()
			return 0, ctx.Err()
		}
		return 10 * k, nil
	}}
	get := func(ctx context.Context, k int) (int, error) { return c.get(ctx, k, nil) }
	entry := func(k int) *onceEntry[int] {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.m[k]
	}

	t.Run("lru", func(t *testing.T) {
		defer c.forget()
		for k := 1; k <= maxRunners; k++ {
			get(ctx, k)
		}
		get(ctx, 1)            // touched: key 2 is now the oldest
		get(ctx, maxRunners+1) // evicts key 2
		if v, _ := get(ctx, 1); v != 10 || builds[1].Load() != 1 {
			t.Errorf("touched key 1: value %d after %d builds, want 10 after 1", v, builds[1].Load())
		}
		if get(ctx, 2); builds[2].Load() != 2 {
			t.Errorf("oldest key 2 built %d times, want 2: it should have been evicted", builds[2].Load())
		}
		if n := len(c.m); n != maxRunners {
			t.Errorf("%d entries, want maxRunners = %d", n, maxRunners)
		}
	})

	const waiters = 8
	t.Run("shared build and failure", func(t *testing.T) {
		defer c.forget()
		for _, k := range []int{0, 3} {
			builds[k].Store(0)
			gate[k] = make(chan struct{})
			var wg sync.WaitGroup
			vals, errs := make([]int, waiters), make([]error, waiters)
			for i := range waiters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					vals[i], errs[i] = get(ctx, k)
				}()
			}
			close(gate[k])
			wg.Wait()
			delete(gate, k)
			if n := builds[k].Load(); n != 1 {
				t.Errorf("key %d: %d builds under %d concurrent lookups, want 1", k, n, waiters)
			}
			for i := range waiters {
				if k == 0 && !errors.Is(errs[i], errBad) {
					t.Errorf("failing key, waiter %d: error %v, want the build's", i, errs[i])
				} else if k != 0 && (errs[i] != nil || vals[i] != 10*k) {
					t.Errorf("key %d, waiter %d: (%d, %v), want (%d, nil)", k, i, vals[i], errs[i], 10*k)
				}
			}
		}
	})

	t.Run("failure stays shared", func(t *testing.T) {
		defer c.forget()
		builds[0].Store(0)
		for range 2 {
			cctx, cancel := context.WithCancel(ctx)
			_, err := get(cctx, 0)
			cancel()
			if !errors.Is(err, errBad) {
				t.Fatalf("failing key: error %v, want the build's", err)
			}
		}
		if n := builds[0].Load(); n != 1 || entry(0) == nil {
			t.Errorf("failing key: %d builds, cached %v; want 1 build whose failure stays cached", n, entry(0) != nil)
		}
	})

	t.Run("cancelled wait", func(t *testing.T) {
		defer c.forget()
		const k = 4
		builds[k].Store(0)
		gate[k] = make(chan struct{})
		cctx, cancel := context.WithCancel(ctx)
		go func() {
			for builds[k].Load() == 0 { // until the build has started
				runtime.Gosched()
			}
			cancel()
		}()
		if _, err := get(cctx, k); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled lookup returned %v, want context.Canceled", err)
		}
		close(gate[k])
		v, err := get(ctx, k)
		delete(gate, k)
		if v != 10*k || err != nil || builds[k].Load() != 1 {
			t.Errorf("after the cancelled lookup: (%d, %v) after %d builds, want (%d, nil) after 1", v, err, builds[k].Load(), 10*k)
		}
	})

	t.Run("own context error dropped", func(t *testing.T) {
		defer c.forget()
		builds[ctxKey].Store(0)
		cctx, cancel := context.WithCancel(ctx)
		go func() {
			for builds[ctxKey].Load() == 0 { // until the build has started
				runtime.Gosched()
			}
			cancel()
		}()
		if _, err := get(cctx, ctxKey); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled lookup returned %v, want context.Canceled", err)
		}
		for e := entry(ctxKey); e != nil && !e.built.Load(); e = entry(ctxKey) {
			runtime.Gosched() // until the build has ended and dropped its entry
		}
		if e := entry(ctxKey); e != nil {
			t.Fatalf("a build cancelled by its own context stayed cached with error %v", e.err)
		}
		if v, err := get(ctx, ctxKey); v != 10*ctxKey || err != nil || builds[ctxKey].Load() != 2 {
			t.Errorf("live lookup after the cancelled build: (%d, %v) after %d builds, want (%d, nil) after 2", v, err, builds[ctxKey].Load(), 10*ctxKey)
		}
	})
}

// planBuild is a build of a plan-cache test instance: the instance's
// per-call argument, run with the first caller's context.
type planBuild = func(context.Context) (*hybridPlan, error)

// newPlanTestCache returns an empty cache with planCache's bound whose
// per-call argument is the build itself.
func newPlanTestCache() *onceCache[string, planBuild, *hybridPlan] {
	return &onceCache[string, planBuild, *hybridPlan]{limit: planCache.limit,
		build: func(ctx context.Context, _ string, b planBuild) (*hybridPlan, error) { return b(ctx) }}
}

// TestFailedPlanLeavesLaterEntryAlone: an owner whose build is cancelled
// removes its own cache entry, not whatever sits under its key by then.
// Owner A is still building when eight other plans evict its entry; B asks
// for the same key, finds nothing and builds a live plan; then A's context
// is cancelled and its build ends in that error. B's entry must survive, so
// the next caller — another shard of B's campaign — is a hit and not a
// rebuild of the ISS pass and the audit.
func TestFailedPlanLeavesLaterEntryAlone(t *testing.T) {
	c := newPlanTestCache()
	ctx := context.Background()
	aCtx, cancelA := context.WithCancel(ctx)
	defer cancelA()
	building := make(chan struct{})
	aDone := make(chan error)
	go func() {
		_, err := c.get(aCtx, "key", func(ctx context.Context) (*hybridPlan, error) {
			close(building)
			<-ctx.Done()
			return nil, ctx.Err()
		})
		aDone <- err
	}()
	<-building
	c.mu.Lock()
	a := c.m["key"]
	c.mu.Unlock()
	for i := range c.limit {
		if _, err := c.get(ctx, fmt.Sprint("other-", i), func(context.Context) (*hybridPlan, error) { return &hybridPlan{}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	live := &hybridPlan{}
	if got, err := c.get(ctx, "key", func(context.Context) (*hybridPlan, error) { return live, nil }); err != nil || got != live {
		t.Fatalf("B's build: plan %p, err %v; want its own plan %p (A's entry should have been evicted)", got, err, live)
	}
	cancelA()
	if err := <-aDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("A's cancelled build returned %v, want context.Canceled", err)
	}
	for !a.built.Load() {
		runtime.Gosched() // until A's build has ended and dropped what it drops
	}
	got, err := c.get(ctx, "key", func(context.Context) (*hybridPlan, error) {
		t.Error("B's second call rebuilt the plan: A's cancellation removed B's live entry")
		return &hybridPlan{}, nil
	})
	if err != nil || got != live {
		t.Errorf("B's second call: plan %p, err %v; want the cached %p", got, err, live)
	}
}

// joinedCtx is a live context that reports when onceCache.get first asks
// it for Done, which get does once it holds the key's entry: there a
// waiter has joined the build.
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
	c := newPlanTestCache()
	ownerCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	building := make(chan struct{})
	ownerDone := make(chan error)
	go func() {
		_, err := c.get(ownerCtx, "key", func(ctx context.Context) (*hybridPlan, error) {
			close(building)
			<-ctx.Done()
			return nil, ctx.Err()
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
		p, err := c.get(waiter, "key", func(context.Context) (*hybridPlan, error) { return live, nil })
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
