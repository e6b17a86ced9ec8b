package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"testing"
	"time"
)

// drainFreeLists empties the process-wide free lists, so that what a test's
// campaigns reuse is what its own earlier campaigns left.
func drainFreeLists() {
	drain(expansions)
	drain(samples)
	drain(outcomes)
	drain(indices)
	drain(subsets)
	drain(results)
	drain(auditMaps)
}

func drain[T any](f freeList[T]) {
	for len(f) > 0 {
		f.take()
	}
}

// shardedOnPool runs req on a fresh 4-shard pool with one local worker and
// returns once that worker is gone too, so that everything the campaign
// hands back to the free lists is there for the next one.
func shardedOnPool(t *testing.T, req Request) []byte {
	t.Helper()
	pool := NewShardPool(ShardPoolOptions{Shards: 4})
	out, err := pool.Execute(context.Background(), req, 1, nil)
	pool.Wait()
	if err != nil {
		t.Fatal(err)
	}
	b, err := encodeOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestReusedShardStorageCarriesNothing: the local shards of a sharded hybrid
// campaign, then of a transient one, then of a permanent one, each lay their
// outputs over the arrays the campaign before handed back — hybrid labels,
// then instants, where the next campaign has none — and each is still
// byte-identical to Execute.
func TestReusedShardStorageCarriesNothing(t *testing.T) {
	drainFreeLists()
	for _, req := range []Request{ // shards of 48, 24 and 24 experiments
		{Workload: "puwmod", Iterations: 2, Engine: "hybrid", RTLAudit: 0.2, Nodes: 64, Seed: 5},
		{Workload: "rspeed", Iterations: 2, Models: []string{"seu", "set"}, PulseCycles: 2, Nodes: 48, Seed: 6, InjectAtFraction: 0.5},
		{Workload: "rspeed", Iterations: 2, Nodes: 32, Seed: 7, InjectAtFraction: 0.5},
	} {
		got := shardedOnPool(t, req)
		if len(outcomes) == 0 || len(indices) == 0 {
			t.Fatalf("%s %v: no shard output handed back for the next campaign", req.Engine, req.Models)
		}
		if want := encodedOutcome(t, req); !bytes.Equal(got, want) {
			t.Errorf("%s %v: sharded over reused storage differs from Execute (%d vs %d bytes)",
				req.Engine, req.Models, len(got), len(want))
		}
	}
}

// TestCampaignEndingMidShardLeavesStorageAlone: a campaign that ends while
// one of its local workers is inside a shard lets go of nothing that worker
// still uses, and leaves nothing behind in what it lets go of.
//
// Cancelled: the worker stops one experiment into its shard and hands back
// a partial output, a transient's instant in it; the permanent campaign that
// lays its shards over that array is Execute's, byte for byte.
//
// Failed by another worker's report (a golden run that is not the
// campaign's) while the local worker holds a lease it has not started: the
// worker runs its shard after the campaign is over, reading the campaign's
// expansion throughout. That expansion goes back to the free list only once
// the worker has returned, so the campaign run meanwhile writes its own
// elsewhere — which the race detector would report otherwise.
func TestCampaignEndingMidShardLeavesStorageAlone(t *testing.T) {
	perm := Request{Workload: "rspeed", Iterations: 2, Nodes: 32, Seed: 9, InjectAtFraction: 0.5}
	want := encodedOutcome(t, perm)

	t.Run("cancelled", func(t *testing.T) {
		drainFreeLists()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pool := NewShardPool(ShardPoolOptions{Shards: 4})
		transient := Request{Workload: "rspeed", Iterations: 2, Models: []string{"seu", "set"}, PulseCycles: 2,
			Nodes: 96, Seed: 8, InjectAtFraction: 0.5}
		_, err := pool.Execute(ctx, transient, 1, func(done, _, _ int) {
			if done > 0 {
				cancel() // from the worker, on its shard's first report
			}
		})
		pool.Wait()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("Execute returned %v, want the cancellation", err)
		}
		if len(outcomes) == 0 {
			t.Fatal("the cancelled shard's output was not handed back")
		}
		if got := shardedOnPool(t, perm); !bytes.Equal(got, want) {
			t.Errorf("a campaign over a cancelled shard's storage differs from Execute (%d vs %d bytes)", len(got), len(want))
		}
	})

	t.Run("failed", func(t *testing.T) {
		drainFreeLists()
		gate := &leaseGate{held: make(chan struct{}), release: make(chan struct{})}
		pool := NewShardPool(ShardPoolOptions{Shards: 2, LocalWorkers: 1, Log: slog.New(gate)})
		failing := Request{Workload: "rspeed", Iterations: 2, Nodes: 96, Seed: 10, InjectAtFraction: 0.5}
		returned := make(chan error, 1)
		go func() {
			_, err := pool.Execute(context.Background(), failing, 1, nil)
			returned <- err
		}()
		<-gate.held // local-0 leased shard 0 and has not run it
		l, ok := pool.Lease("remote")
		if !ok {
			t.Fatal("no second shard to lease")
		}
		n := l.Range.End - l.Range.Start
		bad := ShardOutput{GoldenCycles: 1, Indices: make([]int, n), Experiments: make([]ExperimentOutcome, n)}
		for k := range bad.Indices {
			bad.Indices[k] = l.Range.Start + k
		}
		if err := pool.Complete(ShardResult{Lease: l.Lease, Output: bad}); err == nil {
			t.Fatal("a result from another golden run was accepted")
		}
		if err := <-returned; err == nil {
			t.Fatal("the campaign succeeded after a diverged shard")
		}
		// Nothing is waited for here: the pause gives a hand-back that came
		// too early — the janitor's, say, as it sees the campaign over —
		// the time to happen before this campaign expands.
		time.Sleep(10 * time.Millisecond)
		close(gate.release)
		// The worker now runs shard 0 over the failed campaign's expansion,
		// while this campaign expands its own.
		if got := shardedOnPool(t, perm); !bytes.Equal(got, want) {
			t.Errorf("a campaign run beside a failed one's late worker differs from Execute (%d vs %d bytes)", len(got), len(want))
		}
		pool.Wait()
	})
}

// leaseGate is a log handler that holds the first local worker to lease a
// shard inside the lease's log line — after the lease, before its shard runs
// — until release is closed.
type leaseGate struct {
	held, release chan struct{}
	once          sync.Once
}

func (g *leaseGate) Enabled(context.Context, slog.Level) bool { return true }

func (g *leaseGate) Handle(_ context.Context, r slog.Record) error {
	if r.Message != "shard leased" {
		return nil
	}
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "worker" && a.Value.String() == "local-0" {
			g.once.Do(func() {
				close(g.held)
				<-g.release
			})
			return false
		}
		return true
	})
	return nil
}

func (g *leaseGate) WithAttrs([]slog.Attr) slog.Handler { return g }
func (g *leaseGate) WithGroup(string) slog.Handler      { return g }

// TestRecycledPlanStorageCarriesNothing: whole hybrid campaigns run one
// after another, each building its plan over the arrays the one before
// handed back — an IU campaign, a transient one, a CMEM one (another
// population, other units, another audit sample), one cancelled in its
// escalations, then a fresh request — and each is byte-identical to the
// same request run on fresh storage.
func TestRecycledPlanStorageCarriesNothing(t *testing.T) {
	hybrid := func(seed int64, target string, models ...string) Request {
		return Request{Workload: "puwmod", Iterations: 2, Target: target, Models: models, Engine: "hybrid",
			RTLAudit: 0.1, Nodes: 48, Seed: seed, PulseCycles: 2, InjectAtFraction: 0.5}
	}
	steps := []struct {
		req       Request
		cancelled bool
	}{
		{hybrid(21, "iu"), false},
		{hybrid(22, "iu", "seu", "set"), false},
		{hybrid(23, "cmem"), false},
		{hybrid(24, "iu", "sa0", "set"), true},
		{hybrid(25, "iu", "sa1", "open"), false},
	}
	fresh := make([][]byte, len(steps))
	for i, s := range steps {
		if !s.cancelled {
			drainFreeLists()
			fresh[i] = encodedOutcome(t, s.req)
		}
	}
	drainFreeLists()
	for i, s := range steps {
		name := fmt.Sprintf("%s %v seed %d", s.req.Target, s.req.Models, s.req.Seed)
		if s.cancelled {
			ctx, cancel := context.WithCancel(context.Background())
			_, err := Execute(ctx, s.req, 2, func(done, _, _ int) {
				if done > 0 {
					cancel() // at the first escalation to finish
				}
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: Execute returned %v, want the cancellation", name, err)
			}
		} else if got := encodedOutcome(t, s.req); !bytes.Equal(got, fresh[i]) {
			t.Errorf("%s: over the last campaign's plan arrays it differs from fresh storage (%d vs %d bytes)",
				name, len(got), len(fresh[i]))
		}
		if len(results) == 0 || len(auditMaps) == 0 || len(subsets) == 0 {
			t.Fatalf("%s: the plan's arrays were not handed back for the next campaign", name)
		}
	}
}
