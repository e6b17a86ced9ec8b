package jobs

import (
	"context"
	"errors"
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

// TestOnceCache holds the runner caches' policy on a fake build: entries
// are evicted least-recently-used at maxRunners, a failed build is every
// waiter's failure, N concurrent lookups of a key build it once, and a
// lookup whose context ends returns at once while its build goes on to
// fill the entry.
func TestOnceCache(t *testing.T) {
	ctx := context.Background()
	var builds [maxRunners + 2]atomic.Int32
	gate := map[int]chan struct{}{} // a key's build waits for its gate to close
	errBad := errors.New("bad key")
	c := &onceCache[int, int]{build: func(k int, _ *obs.Registry) (int, error) {
		builds[k].Add(1)
		if g := gate[k]; g != nil {
			<-g
		}
		if k == 0 {
			return 0, errBad
		}
		return 10 * k, nil
	}}
	get := func(ctx context.Context, k int) (int, error) { return c.get(ctx, k, nil) }

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
}
