package jobs_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

// leaseOf wraps a whole campaign of n experiments as one lease, the way
// a coordinator planning a single shard would hand it out.
func leaseOf(req jobs.Request, n int, ttlSeconds float64) *jobs.ShardLease {
	return &jobs.ShardLease{
		Lease:           "test-lease",
		Request:         req,
		Range:           jobs.ShardRange{Start: 0, End: n},
		Total:           n,
		LeaseTTLSeconds: ttlSeconds,
	}
}

// cadenceOf lists the completions of an n-experiment shard that RunLease
// reports: the first, the last, and every (n/16+1)-th.
func cadenceOf(n int) (dones []int) {
	for d := 1; d <= n; d++ {
		if d == 1 || d == n || d%(n/16+1) == 0 {
			dones = append(dones, d)
		}
	}
	return dones
}

// TestKeepaliveIntervalInsideTTL: a live worker keeps its lease only if
// a keepalive lands before the TTL runs out, so the interval must stay
// under the TTL however short the TTL is.
func TestKeepaliveIntervalInsideTTL(t *testing.T) {
	for _, ttl := range []time.Duration{100 * time.Millisecond, 500 * time.Millisecond, time.Second, 2 * time.Second, 3 * time.Second, 2 * time.Minute} {
		if iv := jobs.KeepaliveInterval(ttl); iv <= 0 || iv >= ttl {
			t.Errorf("TTL %v: keepalive interval %v, want inside (0, %v)", ttl, iv, ttl)
		}
	}
}

// TestRunLeaseReports pins the one lease runner's reporting contract:
// the first and last completion and every (size/16+1)-th in between are
// reported, in order; a keepalive that fires while a report is in flight
// repeats the latest tally and never an older one; and a progress func
// answering true cancels the shard, which hands back its partial.
func TestRunLeaseReports(t *testing.T) {
	req := shardSpec("iu")
	// One-experiment dispatch granule, so cancellation leaves a strict
	// partial and every completion is its own tap.
	req.NoCheckpoint = true
	n := req.Nodes * 3 // the three default permanent models

	type report struct{ done, failures int }
	var mu sync.Mutex
	var seen []report
	record := func(done, failures int) {
		mu.Lock()
		seen = append(seen, report{done, failures})
		mu.Unlock()
	}
	monotone := func(t *testing.T) {
		t.Helper()
		for i := 1; i < len(seen); i++ {
			if seen[i].done < seen[i-1].done || seen[i].failures < seen[i-1].failures {
				t.Fatalf("report %d ran backwards: %+v after %+v", i, seen[i], seen[i-1])
			}
		}
	}

	t.Run("cadence", func(t *testing.T) {
		lease := leaseOf(req, n, 0)
		seen = nil
		out, err := jobs.RunLease(context.Background(), lease, 2, nil, func(done, failures int) bool {
			record(done, failures)
			return false
		})
		if err != nil || len(out.Indices) != n {
			t.Fatalf("RunLease: %d of %d experiments, err %v", len(out.Indices), n, err)
		}
		want := cadenceOf(n)
		if len(seen) != len(want) {
			t.Fatalf("%d reports %+v, want one per %v", len(seen), seen, want)
		}
		for i, d := range want {
			if seen[i].done != d {
				t.Fatalf("report %d: done=%d, want %d", i, seen[i].done, d)
			}
		}
		monotone(t)
	})

	t.Run("keepalive", func(t *testing.T) {
		// Hold the first report past the keepalive interval of a
		// one-second TTL: the tick that lands meanwhile must wait for the
		// lock, and what it then reports is the tally as of that moment.
		lease := leaseOf(req, n, 1)
		seen = nil
		var once sync.Once
		out, err := jobs.RunLease(context.Background(), lease, 1, nil, func(done, failures int) bool {
			record(done, failures)
			once.Do(func() { time.Sleep(jobs.KeepaliveInterval(time.Second) + 200*time.Millisecond) })
			return false
		})
		if err != nil || len(out.Indices) != n {
			t.Fatalf("RunLease: %d of %d experiments, err %v", len(out.Indices), n, err)
		}
		monotone(t)
		if last := seen[len(seen)-1]; last.done != n {
			t.Fatalf("last report %+v, want done=%d", last, n)
		}
		if cadence := len(cadenceOf(n)); len(seen) <= cadence {
			t.Fatalf("%d reports, want the %d cadence ones plus a keepalive", len(seen), cadence)
		}
	})

	t.Run("cancel", func(t *testing.T) {
		lease := leaseOf(req, n, 0)
		seen = nil
		out, err := jobs.RunLease(context.Background(), lease, 1, nil, func(done, failures int) bool {
			record(done, failures)
			return true
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled shard returned err %v, want context.Canceled", err)
		}
		if out == nil || len(out.Indices) == 0 || len(out.Indices) >= n {
			t.Fatalf("cancelled shard output %+v, want a strict non-empty partial of %d", out, n)
		}
		monotone(t)
	})
}
