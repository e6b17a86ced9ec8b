package jobs_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
)

func encode(t *testing.T, o *jobs.Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jobs.EncodeOutcome(&buf, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestPlanShards(t *testing.T) {
	for _, tc := range []struct{ n, k, want int }{
		{100, 4, 4},
		{7, 3, 3},
		{3, 8, 3}, // never more shards than experiments
		{5, 0, 1}, // k<=0 collapses to one shard
		{0, 4, 0}, // empty campaign plans nothing
		{1, 1, 1},
		{64, 64, 64},
	} {
		plan := jobs.PlanShards(tc.n, tc.k)
		if len(plan) != tc.want {
			t.Errorf("PlanShards(%d,%d): %d shards, want %d", tc.n, tc.k, len(plan), tc.want)
			continue
		}
		// Contiguous, ascending, non-empty, covering exactly [0,n), and
		// near-equal (sizes differ by at most one).
		next, min, max := 0, tc.n+1, 0
		for i, sh := range plan {
			if sh.Index != i || sh.Start != next || sh.End <= sh.Start {
				t.Errorf("PlanShards(%d,%d)[%d] = %+v, want contiguous from %d", tc.n, tc.k, i, sh, next)
			}
			size := sh.End - sh.Start
			if size < min {
				min = size
			}
			if size > max {
				max = size
			}
			next = sh.End
		}
		if len(plan) > 0 && (next != tc.n || max-min > 1) {
			t.Errorf("PlanShards(%d,%d) covers [0,%d) with spread %d", tc.n, tc.k, next, max-min)
		}
	}
}

// shardSpec is a campaign big enough to shard meaningfully but cheap
// enough to rerun many times: a 24-node sample of excerptA across all
// three models (72 experiments).
func shardSpec(target string) jobs.Request {
	return jobs.Request{
		Workload:         "excerptA",
		Target:           target,
		Nodes:            24,
		Seed:             1,
		InjectAtFraction: 0.3,
	}
}

// TestShardPartitionDeterminism is the determinism property behind the
// whole shard layer: ANY partition of [0,N) into ranges — not just the
// planner's — reproduces the unsharded per-experiment array exactly, on
// both injection targets. Outcome aggregates are pure functions of that
// array, so array equality is byte equality of the encoded result.
func TestShardPartitionDeterminism(t *testing.T) {
	for _, target := range []string{"iu", "cmem"} {
		req := shardSpec(target)
		want, err := jobs.Execute(context.Background(), req, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		n := want.Injections
		if n < 16 {
			t.Fatalf("target %s: campaign too small to partition (%d experiments)", target, n)
		}
		rng := rand.New(rand.NewSource(42))
		for trial := 0; trial < 3; trial++ {
			// Random partition into contiguous ranges.
			var cuts []int
			for i := 1; i < n; i++ {
				if rng.Intn(n/6+1) == 0 {
					cuts = append(cuts, i)
				}
			}
			bounds := append(append([]int{0}, cuts...), n)
			merged := make([]jobs.ExperimentOutcome, 0, n)
			for i := 0; i+1 < len(bounds); i++ {
				out, err := jobs.ExecuteShard(context.Background(), req, bounds[i], bounds[i+1], 2, nil)
				if err != nil {
					t.Fatal(err)
				}
				if len(out.Indices) != bounds[i+1]-bounds[i] {
					t.Fatalf("target %s: shard [%d,%d) completed %d of %d experiments",
						target, bounds[i], bounds[i+1], len(out.Indices), bounds[i+1]-bounds[i])
				}
				if out.GoldenCycles != want.GoldenCycles || out.Checkpointed != want.Checkpointed {
					t.Fatalf("target %s: shard golden metadata diverged", target)
				}
				merged = append(merged, out.Experiments...)
			}
			if !reflect.DeepEqual(merged, want.Experiments) {
				t.Fatalf("target %s trial %d: partition %v reassembled a different experiment array",
					target, trial, bounds)
			}
		}
	}
}

// TestExecuteShardedBitIdentical is the acceptance criterion verbatim: a
// sharded campaign on 3 in-process workers produces a byte-identical
// canonical outcome to the unsharded run, on both targets.
func TestExecuteShardedBitIdentical(t *testing.T) {
	for _, target := range []string{"iu", "cmem"} {
		req := shardSpec(target)
		want, err := jobs.Execute(context.Background(), req, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := jobs.ExecuteSharded(context.Background(), req, 5, 3, nil)
		if err != nil {
			t.Fatal(err)
		}
		if w, g := encode(t, want), encode(t, got); !bytes.Equal(w, g) {
			t.Fatalf("target %s: sharded outcome diverged from unsharded:\n--- unsharded\n%s\n--- sharded\n%s", target, w, g)
		}
	}
}

// TestShardCountIsNotDefaulted: a shard count below 1 is an error of
// ExecuteSharded, not a quiet 8-way split, and a pool sized 0 plans the
// one shard PlanShards makes of it.
func TestShardCountIsNotDefaulted(t *testing.T) {
	for _, shards := range []int{0, -3} {
		if _, err := jobs.ExecuteSharded(context.Background(), shardSpec("iu"), shards, 2, nil); err == nil {
			t.Errorf("ExecuteSharded with %d shards: no error", shards)
		}
	}
	pool := jobs.NewShardPool(jobs.ShardPoolOptions{})
	if _, err := pool.Execute(context.Background(), shardSpec("iu"), 2, nil); err != nil {
		t.Fatal(err)
	}
	if st := pool.Stats(); st.Planned != 1 {
		t.Errorf("a pool sized 0 planned %d shards, want 1", st.Planned)
	}
}

// TestManagerSharded runs a campaign through a shard-pool-backed manager
// and checks the result matches unsharded execution byte for byte, the
// progress stream reaches the terminal count, and the pool accounted for
// every shard.
func TestManagerSharded(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{
		Concurrency: 1,
		Shards:      4,
	})
	defer m.Close()
	st, fresh, err := m.Submit(shardSpec("iu"))
	if err != nil {
		t.Fatal(err)
	}
	if !fresh {
		t.Fatal("first submission not fresh")
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	want, err := jobs.Execute(context.Background(), shardSpec("iu"), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := encode(t, want), encode(t, final.Result); !bytes.Equal(w, g) {
		t.Fatal("manager sharded result diverged from unsharded execution")
	}
	pool := m.ShardPool()
	if pool == nil {
		t.Fatal("manager with Shards>1 has no shard pool")
	}
	ps := pool.Stats()
	if ps.Campaigns != 1 || ps.Planned != 4 || ps.Completed != 4 {
		t.Fatalf("pool stats %+v: want 1 campaign, 4 planned, 4 completed", ps)
	}
}

// TestEarlyStopping checks the adaptive epsilon rule end to end on both
// the unsharded and sharded paths: the campaign halts before its planned
// total, says so in the outcome, and the final interval honours epsilon.
func TestEarlyStopping(t *testing.T) {
	req := shardSpec("iu")
	full, err := jobs.Execute(context.Background(), req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Epsilon = 0.2 // coarse: converges after a few dozen experiments
	// The production engine: a stop lands within one experiment per worker,
	// so the 72-experiment campaign stops early even where one CPU runs
	// both workers' draws back to back (-cpu 1 under -race).

	for name, run := range map[string]func() (*jobs.Outcome, error){
		"unsharded": func() (*jobs.Outcome, error) {
			return jobs.Execute(context.Background(), req, 2, nil)
		},
		"sharded": func() (*jobs.Outcome, error) {
			return jobs.ExecuteSharded(context.Background(), req, 8, 2, nil)
		},
	} {
		out, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.EarlyStopped {
			t.Fatalf("%s: campaign ran to completion despite epsilon", name)
		}
		if out.Requested != full.Injections {
			t.Errorf("%s: requested %d, want the planned total %d", name, out.Requested, full.Injections)
		}
		if out.Injections >= out.Requested || out.Injections == 0 {
			t.Errorf("%s: %d of %d experiments completed; want a strict non-empty subset",
				name, out.Injections, out.Requested)
		}
		if len(out.Experiments) != out.Injections {
			t.Errorf("%s: %d experiments in array, injections %d", name, len(out.Experiments), out.Injections)
		}
		// The live tally converged at epsilon; the folded result has at
		// least those experiments, so its half-width stays in the same
		// regime — allow slack for the fold/tally gap.
		if hw := (out.PfHigh - out.PfLow) / 2; hw > req.Epsilon*1.5 {
			t.Errorf("%s: final half-width %.3f far above epsilon %.3f", name, hw, req.Epsilon)
		}
	}

	// Epsilon validation: NaN, negative, and >= 0.5 are rejected.
	for _, eps := range []float64{-0.1, 0.5, 0.7} {
		bad := shardSpec("iu")
		bad.Epsilon = eps
		if _, err := bad.Normalize(); err == nil {
			t.Errorf("epsilon %v accepted", eps)
		}
	}
	// Epsilon is content: it must fragment the cache key.
	k0, err := shardSpec("iu").Key()
	if err != nil {
		t.Fatal(err)
	}
	withEps := shardSpec("iu")
	withEps.Epsilon = 0.2
	k1, err := withEps.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k0 == k1 {
		t.Error("epsilon did not change the content address")
	}
}

// TestRemoteShardProtocol drives a remote-only pool through the exact
// Lease/Progress/Complete surface the HTTP layer exposes and checks the
// merged result matches unsharded execution.
func TestRemoteShardProtocol(t *testing.T) {
	pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 3, LocalWorkers: -1})
	req := shardSpec("iu")

	type res struct {
		out *jobs.Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := pool.Execute(context.Background(), req, 0, nil)
		ch <- res{out, err}
	}()

	// Drain all three shards as a remote worker would.
	seen := 0
	deadline := time.Now().Add(30 * time.Second)
	for seen < 3 {
		l, ok := pool.Lease("w1")
		if !ok {
			if time.Now().After(deadline) {
				t.Fatal("no lease before deadline")
			}
			time.Sleep(10 * time.Millisecond)
			continue
		}
		seen++
		out, err := jobs.ExecuteShard(context.Background(), l.Request, l.Range.Start, l.Range.End, 2,
			func(done, total, failures int) {
				if pool.Progress(l.Lease, done, failures) {
					t.Errorf("coordinator cancelled lease %s unexpectedly", l.Lease)
				}
			})
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Complete(jobs.ShardResult{Lease: l.Lease, Output: *out}); err != nil {
			t.Fatal(err)
		}
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	want, err := jobs.Execute(context.Background(), req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := encode(t, want), encode(t, r.out); !bytes.Equal(w, g) {
		t.Fatal("remote-protocol result diverged from unsharded execution")
	}

	// Protocol edges: an unknown lease cancels the worker; completing or
	// failing one reports ErrNoLease.
	if !pool.Progress("no-such-lease", 1, 0) {
		t.Error("unknown lease progress did not request cancel")
	}
	if err := pool.Complete(jobs.ShardResult{Lease: "no-such-lease"}); !errors.Is(err, jobs.ErrNoLease) {
		t.Errorf("unknown lease complete: %v, want ErrNoLease", err)
	}
	if err := pool.Fail("no-such-lease", "boom"); !errors.Is(err, jobs.ErrNoLease) {
		t.Errorf("unknown lease fail: %v, want ErrNoLease", err)
	}
	if st := pool.Stats(); st.Completed != 3 || st.Workers["w1"] != 3 {
		t.Errorf("pool stats %+v: want 3 completions by w1", st)
	}
}

// TestShardFailureRequeueAndAttempts: a failed lease requeues its shard
// for another worker; a shard that keeps failing takes the campaign down
// instead of bouncing forever.
func TestShardFailureRequeueAndAttempts(t *testing.T) {
	pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 1, LocalWorkers: -1})
	req := shardSpec("iu")
	type res struct {
		out *jobs.Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := pool.Execute(context.Background(), req, 0, nil)
		ch <- res{out, err}
	}()

	lease := func() *jobs.ShardLease {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if l, ok := pool.Lease("flaky"); ok {
				return l
			}
			if time.Now().After(deadline) {
				t.Fatal("no lease before deadline")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Two failures requeue; the third kills the campaign.
	for i := 0; i < 2; i++ {
		if err := pool.Fail(lease().Lease, "synthetic worker crash"); err != nil {
			t.Fatal(err)
		}
	}
	if err := pool.Fail(lease().Lease, "synthetic worker crash"); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err == nil {
		t.Fatal("campaign survived a shard that failed every attempt")
	}

	// A divergent golden-run report is an integrity failure, not a merge.
	pool2 := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 1, LocalWorkers: -1})
	go func() {
		out, err := pool2.Execute(context.Background(), req, 0, nil)
		ch <- res{out, err}
	}()
	var l2 *jobs.ShardLease
	deadline := time.Now().Add(30 * time.Second)
	for {
		if l, ok := pool2.Lease("w"); ok {
			l2 = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	out, err := jobs.ExecuteShard(context.Background(), l2.Request, l2.Range.Start, l2.Range.End, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	out.GoldenCycles++ // corrupt the metadata
	refused := pool2.Complete(jobs.ShardResult{Lease: l2.Lease, Output: *out})
	r = <-ch
	if r.err == nil {
		t.Fatal("campaign accepted a shard with divergent golden metadata")
	}
	if refused == nil || refused.Error() != r.err.Error() {
		t.Errorf("the divergent report answered %v, want the campaign's error %v", refused, r.err)
	}
}

// TestStaleLeaseReclaim: a worker that leases a shard and goes silent
// loses it to the next worker once the TTL expires.
func TestStaleLeaseReclaim(t *testing.T) {
	// TTL long enough that a live worker's per-experiment progress reports
	// keep its lease fresh, short enough for the test to wait it out.
	pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 1, LocalWorkers: -1, LeaseTTL: 250 * time.Millisecond})
	req := shardSpec("iu")
	type res struct {
		out *jobs.Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := pool.Execute(context.Background(), req, 0, nil)
		ch <- res{out, err}
	}()
	deadline := time.Now().Add(30 * time.Second)
	var dead *jobs.ShardLease
	for {
		if l, ok := pool.Lease("dying-worker"); ok {
			dead = l
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no lease before deadline")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond) // let the lease expire

	var l *jobs.ShardLease
	for {
		if got, ok := pool.Lease("healthy-worker"); ok {
			l = got
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("expired lease never reclaimed")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if l.Range != dead.Range {
		t.Fatalf("reclaimed range %+v, want the dead worker's %+v", l.Range, dead.Range)
	}
	// The dead worker's late report is refused.
	if !pool.Progress(dead.Lease, 1, 0) {
		t.Error("expired lease progress did not request cancel")
	}
	out, err := jobs.ExecuteShard(context.Background(), l.Request, l.Range.Start, l.Range.End, 2,
		func(done, total, failures int) { pool.Progress(l.Lease, done, failures) })
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Complete(jobs.ShardResult{Lease: l.Lease, Output: *out}); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	if r.out.Injections == 0 {
		t.Fatal("reclaimed campaign produced no experiments")
	}
}

// TestReclaimsDoNotTripPoisonBound: TTL reclaims indict the worker, not
// the shard — more reclaims than the explicit-failure bound allows must
// still let the campaign complete once a live worker picks the shard up.
func TestReclaimsDoNotTripPoisonBound(t *testing.T) {
	pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 1, LocalWorkers: -1, LeaseTTL: 50 * time.Millisecond})
	req := shardSpec("iu")
	type res struct {
		out *jobs.Outcome
		err error
	}
	ch := make(chan res, 1)
	go func() {
		out, err := pool.Execute(context.Background(), req, 0, nil)
		ch <- res{out, err}
	}()
	lease := func(worker string) *jobs.ShardLease {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if l, ok := pool.Lease(worker); ok {
				return l
			}
			if time.Now().After(deadline) {
				t.Fatal("no lease before deadline")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	// Four silent deaths in a row — beyond maxShardAttempts (3), below
	// maxShardReclaims — each waiting out the TTL.
	for i := 0; i < 4; i++ {
		lease(fmt.Sprintf("dying-%d", i))
		time.Sleep(70 * time.Millisecond)
	}
	l := lease("survivor")
	out, err := jobs.ExecuteShard(context.Background(), l.Request, l.Range.Start, l.Range.End, 2,
		func(done, total, failures int) { pool.Progress(l.Lease, done, failures) })
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.Complete(jobs.ShardResult{Lease: l.Lease, Output: *out}); err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatalf("campaign failed after worker deaths: %v", r.err)
	}
	if r.out.Injections != r.out.Request.Nodes*3 {
		t.Fatalf("campaign finished with %d experiments", r.out.Injections)
	}
}

// TestCrashedWorkerTallyNeverNegative is the requeue-corruption
// regression test: a worker that over-reports its in-flight tally and
// then crashes mid-shard must never drive the coordinator's merged
// progressive tally negative (or beyond the campaign total), and the
// recovered campaign must still merge to the unsharded bytes. The
// coordinator clamps reported tallies into the leased range, so every
// progress snapshot the pool emits stays a valid sample.
func TestCrashedWorkerTallyNeverNegative(t *testing.T) {
	pool := jobs.NewShardPool(jobs.ShardPoolOptions{Shards: 2, LocalWorkers: -1})
	req := shardSpec("iu")

	type res struct {
		out *jobs.Outcome
		err error
	}
	ch := make(chan res, 1)
	var tapErr error
	var tapMu sync.Mutex
	go func() {
		out, err := pool.Execute(context.Background(), req, 0, func(done, total, failures int) {
			tapMu.Lock()
			defer tapMu.Unlock()
			if tapErr != nil {
				return
			}
			if done < 0 || failures < 0 || failures > done || done > total {
				tapErr = fmt.Errorf("merged tally went out of range: done=%d failures=%d total=%d",
					done, failures, total)
			}
		})
		ch <- res{out, err}
	}()

	lease := func(worker string) *jobs.ShardLease {
		deadline := time.Now().Add(30 * time.Second)
		for {
			if l, ok := pool.Lease(worker); ok {
				return l
			}
			if time.Now().After(deadline) {
				t.Fatal("no lease before deadline")
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// A lying worker reports an in-flight tally far beyond its shard —
	// and beyond the whole campaign — then crashes mid-shard.
	liar := lease("liar")
	if pool.Progress(liar.Lease, 1_000_000, 2_000_000) {
		t.Fatal("coordinator cancelled the lying worker's lease prematurely")
	}
	if pool.Progress(liar.Lease, -5, -7) {
		t.Fatal("coordinator cancelled after negative report")
	}
	if err := pool.Fail(liar.Lease, "synthetic mid-shard crash"); err != nil {
		t.Fatal(err)
	}

	// Honest workers execute the requeued shard and the remaining one;
	// their real counts are smaller than the dead worker's claim, which
	// is exactly the fold the clamp guards.
	for done := 0; done < 2; done++ {
		l := lease("honest")
		out, err := jobs.ExecuteShard(context.Background(), l.Request, l.Range.Start, l.Range.End, 2,
			func(done, total, failures int) { pool.Progress(l.Lease, done, failures) })
		if err != nil {
			t.Fatal(err)
		}
		if err := pool.Complete(jobs.ShardResult{Lease: l.Lease, Output: *out}); err != nil {
			t.Fatal(err)
		}
	}

	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	tapMu.Lock()
	err := tapErr
	tapMu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	want, err2 := jobs.Execute(context.Background(), req, 4, nil)
	if err2 != nil {
		t.Fatal(err2)
	}
	if w, g := encode(t, want), encode(t, r.out); !bytes.Equal(w, g) {
		t.Fatal("recovered campaign diverged from unsharded execution")
	}
}

// transientSpec is the transient twin of shardSpec: both transient
// models over a 24-node sample with a 2-cycle SET pulse.
func transientSpec() jobs.Request {
	return jobs.Request{
		Workload:         "excerptA",
		Models:           []string{"seu", "set"},
		PulseCycles:      2,
		Nodes:            24,
		Seed:             1,
		InjectAtFraction: 0.3,
	}
}

// TestShardedTransientByteIdentical is the transient acceptance
// criterion: a seu/set campaign executed as shards on 3 in-process
// workers is byte-identical to its unsharded run — which requires the
// injection-cycle schedule to be keyed by absolute experiment index,
// never by worker-local order.
func TestShardedTransientByteIdentical(t *testing.T) {
	req := transientSpec()
	want, err := jobs.Execute(context.Background(), req, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want.Injections != 48 {
		t.Fatalf("transient campaign ran %d experiments, want 48", want.Injections)
	}
	transient := 0
	for _, e := range want.Experiments {
		if e.Model == "bit-flip" || e.Model == "set-pulse" {
			transient++
			if e.AtCycle == nil {
				t.Fatalf("transient experiment %s carries no at_cycle", e.Node)
			}
			if *e.AtCycle < want.GoldenCycles*3/10 || *e.AtCycle >= want.GoldenCycles {
				t.Fatalf("experiment %s at_cycle %d outside the [fork, golden) window", e.Node, *e.AtCycle)
			}
		}
	}
	if transient != want.Injections {
		t.Fatalf("%d of %d experiments carry a transient model", transient, want.Injections)
	}
	got, err := jobs.ExecuteSharded(context.Background(), req, 5, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if w, g := encode(t, want), encode(t, got); !bytes.Equal(w, g) {
		t.Fatalf("sharded transient outcome diverged from unsharded:\n--- unsharded\n%s\n--- sharded\n%s", w, g)
	}
}
