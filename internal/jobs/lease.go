package jobs

import (
	"context"
	"sync"
	"time"

	"repro/internal/obs"
)

// KeepaliveInterval paces a worker's lease keepalives: a third of the
// TTL, at least 1s, never past half of it, with a 5s default for a missing
// TTL. The silent phases of shard execution — golden-run construction, a
// long hang-budget experiment — produce no progress taps, and without
// keepalives the janitor would reclaim a live worker's shard.
func KeepaliveInterval(ttl time.Duration) time.Duration {
	if ttl <= 0 {
		return 5 * time.Second
	}
	return max(ttl/3, min(time.Second, ttl/2))
}

// RunLease executes one leased shard on up to `workers` engine workers
// and is the only code that knows how a lease is worked. In-process pool
// workers and remote `faultserverd -worker` loops differ only in the
// progress func they pass (a method call, an HTTP round trip) and in how
// they deliver the result: a nil output is a failure to report, anything
// else, partial or not, is submitted for the coordinator to fold or
// requeue. reg optionally receives the fault engine's counters; there is
// deliberately no stage tracer — many shards share one campaign, so
// per-shard spans would double-count into its stage histogram.
//
// progress receives shard-local absolute counts and answers whether the
// coordinator wants the shard cancelled (the campaign stopped, converged
// or no longer tracks the lease). It is called for the first and the last
// completion and every (size/16+1)-th in between, so a large shard does
// not cost a report per experiment, and on a keepalive ticker inside the
// lease TTL, which repeats the latest tally through the engine's silent
// phases. Calls are serialized, and each reads the tally under the lock
// it reports under, so a keepalive can never deliver an older count after
// a newer one; none is made after RunLease returns.
//
// Cancelled — by progress or by ctx — a single-engine shard returns what
// completed together with the context's error; see runRange.
func RunLease(ctx context.Context, lease *ShardLease, workers int, reg *obs.Registry,
	progress func(done, failures int) (cancel bool)) (*ShardOutput, error) {
	return runLease(ctx, lease, rangeEnv{workers: workers, reg: reg}, progress)
}

// runLease is RunLease for a caller that may already hold the campaign's
// expansion (env.exps): the pool's local workers. env.tap is runLease's own.
func runLease(ctx context.Context, lease *ShardLease, env rangeEnv,
	progress func(done, failures int) (cancel bool)) (*ShardOutput, error) {
	ctx, cancel := context.WithCancel(ctx)
	stride := (lease.Range.End-lease.Range.Start)/16 + 1
	var mu sync.Mutex
	done, failures := 0, 0 // latest tally, guarded by mu
	report := func() {     // mu held
		if progress(done, failures) {
			cancel()
		}
	}
	kaDone := make(chan struct{})
	go func() {
		defer close(kaDone)
		tick := time.NewTicker(KeepaliveInterval(time.Duration(lease.LeaseTTLSeconds * float64(time.Second))))
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				mu.Lock()
				report()
				mu.Unlock()
			}
		}
	}()
	defer func() {
		cancel()
		<-kaDone
	}()
	env.tap = func(d, total, f int) {
		mu.Lock()
		defer mu.Unlock()
		done, failures = d, f
		if d == 1 || d == total || d%stride == 0 {
			report()
		}
	}
	run, err := runRange(ctx, lease.Request, lease.Range.Start, lease.Range.End, env)
	return run.out, err
}
