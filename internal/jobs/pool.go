package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"maps"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// ErrNoShards reports that the service is not running a shard pool.
var ErrNoShards = errors.New("jobs: sharded execution not enabled")

// ShardStats counts what a shard pool has done since it started. It is
// the pool's one ledger: the /healthz payload as is, and every
// shards_*_total series is a scrape-time read of one of these fields.
type ShardStats struct {
	// Campaigns is the number of sharded campaigns executed.
	Campaigns int `json:"campaigns"`
	// Planned counts shards planned across all campaigns.
	Planned int `json:"planned"`
	// Leased counts leases handed out, including requeued re-leases.
	Leased int `json:"leased"`
	// Completed counts shard results merged.
	Completed int `json:"completed"`
	// Requeued counts shards put back after a worker failure or expiry.
	Requeued int `json:"requeued"`
	// Reclaimed is the subset of Requeued caused by TTL expiry of a silent
	// lease (dead worker), as opposed to explicit Fail reports.
	Reclaimed int `json:"reclaimed"`
	// Poisoned counts campaigns failed by a shard exhausting its failure or
	// reclaim bound or reporting diverged golden-run metadata.
	Poisoned int `json:"poisoned"`
	// EarlyStopped counts campaigns the epsilon rule halted.
	EarlyStopped int `json:"early_stopped"`
	// Workers tallies leases per worker name.
	Workers map[string]int `json:"workers,omitempty"`
}

// ShardPoolOptions sizes a shard pool.
type ShardPoolOptions struct {
	// Shards is the number of experiment-range shards each campaign is
	// split into. Default 8.
	Shards int
	// LocalWorkers is the number of in-process shard executors per
	// campaign: 0 selects the campaign's worker budget (GOMAXPROCS when
	// that is unset), -1 disables local execution entirely (shards are
	// then only served to remote workers).
	LocalWorkers int
	// LeaseTTL bounds how long a silent lease pins its shard before the
	// shard is requeued for another worker. Default 2 minutes.
	LeaseTTL time.Duration
	// Obs, when non-nil, receives the pool's shard lifecycle counters and
	// the fault engine's counters for locally executed shards. Purely
	// observational — see ManagerOptions.Obs.
	Obs *obs.Registry
	// Log, when non-nil, receives shard lifecycle events (leases and
	// completions at Debug, reclaims at Info, poisoned shards at Warn).
	// Nil discards.
	Log *slog.Logger
	// persist, when non-nil, journals every coordinator's shard
	// lifecycle and preloads recovered completed shards. Only the
	// manager sets it (through OpenManager's data directory).
	persist shardPersist
}

// poolPersist adapts a possibly-nil *persistence into the seam without
// producing a non-nil interface wrapping a nil pointer.
func poolPersist(p *persistence) shardPersist {
	if p == nil {
		return nil
	}
	return p
}

// ShardPool coordinates sharded campaign execution: each Execute call
// plans one campaign into shards, runs local worker goroutines over
// them, and — through the Lease/Progress/Complete/Fail surface the HTTP
// layer exposes — lets any number of remote workers pull shards from
// every active campaign. Work is pulled, never pushed: a remote worker
// that attaches mid-campaign simply starts winning leases.
type ShardPool struct {
	opts ShardPoolOptions
	log  *slog.Logger

	mu     sync.Mutex
	active []*Coordinator
	owner  map[string]*Coordinator // lease id -> owning coordinator
	stats  ShardStats

	// running counts the local worker and janitor goroutines of every
	// campaign; Wait joins them.
	running sync.WaitGroup
}

// NewShardPool builds a shard pool.
func NewShardPool(opts ShardPoolOptions) *ShardPool {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 2 * time.Minute
	}
	if opts.Log == nil {
		opts.Log = slog.New(slog.DiscardHandler)
	}
	p := &ShardPool{opts: opts, log: opts.Log, owner: map[string]*Coordinator{}}
	p.registerMetrics(opts.Obs)
	return p
}

// plan resolves the engine a request's campaign is defined on — through
// the process-wide memoized cache, so a pool that also runs local workers
// pays for the golden run exactly once — and hands everything it knows
// to a fresh coordinator. The expansion it sized the campaign by is
// returned for the local workers, which would each make the same one.
func (p *ShardPool) plan(ctx context.Context, req Request, tap Tap) (*Coordinator, []fault.Experiment, error) {
	n, key, err := req.keyed()
	if err != nil {
		return nil, nil, err
	}
	r, err := engineFor(ctx, n, p.opts.Obs)
	if err != nil {
		return nil, nil, err
	}
	var onProgress func(progressTally, int)
	if tap != nil {
		onProgress = func(t progressTally, total int) { tap(t.Done, total, t.Failures) }
	}
	exps := experimentsFor(nil, r, n)
	return newCoordinator(key, n, len(exps), r.GoldenTicks(), r.Checkpointed(),
		p.opts.Shards, onProgress, p.opts.persist), exps, nil
}

// Execute runs one campaign sharded and returns its canonical outcome;
// it matches the ManagerOptions.Executor signature so a manager can
// substitute it for the unsharded path wholesale. workers bounds the
// local shard executors (see ShardPoolOptions.LocalWorkers); tap
// observes folded progressive tallies.
func (p *ShardPool) Execute(ctx context.Context, req Request, workers int, tap Tap) (*Outcome, error) {
	tr := obs.TracerFrom(ctx)
	endGolden := tr.Stage("golden")
	c, exps, err := p.plan(ctx, req, tap)
	endGolden()
	if err != nil {
		return nil, err
	}

	p.mu.Lock()
	p.active = append(p.active, c)
	p.stats.Campaigns++
	p.stats.Planned += c.planned
	p.mu.Unlock()
	p.log.Debug("sharded campaign planned",
		"key", shortKey(c.key), "experiments", c.total, "shards", c.planned)
	defer p.unregister(c)

	if tap != nil {
		tap(0, c.total, 0)
	}
	local := p.opts.LocalWorkers
	if local == 0 {
		local = workers
	}
	if local == 0 {
		local = runtime.GOMAXPROCS(0)
	}
	// The campaign's local shards run on one memoized runner and so resolve
	// through its one verdict table, as the workers of an unsharded campaign
	// do. What the workers report to — the journal behind the coordinator —
	// is released only once they are all gone: they may outlive this call by
	// the shard they are on, so the join is Wait's, not this function's.
	work := func(name string) {
		p.running.Add(1)
		go func() {
			defer p.running.Done()
			p.localWorker(ctx, c, exps, name)
		}()
	}
	for i := 0; i < local; i++ {
		work(fmt.Sprintf("local-%d", i))
	}
	// Janitor: a remote worker that crashes mid-shard leaves a silent
	// lease; without it the campaign would finish every other shard and
	// then hang. Reclaim expired leases periodically and put a local
	// worker on the requeued remainder (unless the pool is remote-only,
	// where the next polling worker picks it up).
	p.running.Add(1)
	go func() {
		defer p.running.Done()
		tick := time.NewTicker(p.opts.LeaseTTL)
		defer tick.Stop()
		for {
			select {
			case <-c.finished:
				return
			case <-ctx.Done():
				return
			case now := <-tick.C:
				if p.reclaim(now, c) > 0 && p.opts.LocalWorkers >= 0 {
					work("local-reclaim")
				}
			}
		}
	}()
	endExec := tr.Stage("execute")
	out, err := c.Wait(ctx)
	endExec()
	switch {
	case err == nil && out.EarlyStopped:
		p.book(&p.stats.EarlyStopped)
	case err != nil && !errors.Is(err, ctx.Err()):
		// Not the caller giving up, so the coordinator's own verdict
		// (fatalLocked): a shard poisoned the campaign.
		p.book(&p.stats.Poisoned)
		p.log.Warn("sharded campaign poisoned", "key", shortKey(c.key), "error", err)
	}
	return out, err
}

// Wait blocks until no local worker of any campaign this pool executed is
// still running. Execute returns when its campaign's outcome is known, which
// may be a shard before its workers notice; whoever is about to release what
// they report to — the manager closing its journal — waits here first. The
// caller must have made every Execute return (their contexts cancelled).
func (p *ShardPool) Wait() { p.running.Wait() }

// book counts one event in a ShardStats field.
func (p *ShardPool) book(field *int) {
	p.mu.Lock()
	*field++
	p.mu.Unlock()
}

// localWorker drains one coordinator's pending shards in-process, as any
// other worker would: lease, run the lease, settle through the pool's own
// Progress/Complete/Fail surface. Each shard executes single-threaded so
// a campaign's total parallelism stays at the local worker count. exps is
// the campaign's expansion as plan made it, shared read-only by every
// local worker: a lease is then a slice of it, not a fresh expansion.
func (p *ShardPool) localWorker(ctx context.Context, c *Coordinator, exps []fault.Experiment, name string) {
	for ctx.Err() == nil {
		l, ok := p.leaseFrom(name, c)
		if !ok {
			return
		}
		out, err := runLease(ctx, l, rangeEnv{workers: 1, reg: p.opts.Obs, exps: exps}, func(done, failures int) bool {
			return p.Progress(l.Lease, done, failures)
		})
		if out == nil {
			// Engine failure (workload build, bad range): requeue; the
			// attempt bound turns a deterministic failure into a campaign
			// failure instead of an infinite bounce.
			p.Fail(l.Lease, err.Error())
			continue
		}
		// Completed, cancelled by the coordinator's stop rule, or aborted
		// from outside with a partial — the coordinator folds the first
		// two and requeues the last.
		p.Complete(ShardResult{Lease: l.Lease, Output: *out})
	}
}

// Lease hands the next pending shard of any active campaign to a remote
// worker, oldest campaign first. With every queue empty it reclaims
// expired leases before reporting no work.
func (p *ShardPool) Lease(worker string) (*ShardLease, bool) {
	p.mu.Lock()
	active := append([]*Coordinator(nil), p.active...)
	p.mu.Unlock()
	if l, ok := p.leaseFrom(worker, active...); ok {
		return l, true
	}
	// No pending work anywhere: requeue shards whose workers went silent,
	// then retry once.
	now := time.Now() //lint:allow det lease-TTL reclaim clock, scheduling only
	if p.reclaim(now, active...) == 0 {
		return nil, false
	}
	return p.leaseFrom(worker, active...)
}

// leaseFrom takes the next pending shard of the first campaign that has
// one and registers the lease.
func (p *ShardPool) leaseFrom(worker string, cs ...*Coordinator) (*ShardLease, bool) {
	for _, c := range cs {
		if l, ok := c.Lease(worker); ok {
			p.record(c, l, worker)
			return l, true
		}
	}
	return nil, false
}

// reclaim takes back the expired leases of the given campaigns and books
// them: the one reclaim path behind the janitor and an idle Lease poll.
func (p *ShardPool) reclaim(now time.Time, cs ...*Coordinator) (reclaimed int) {
	for _, c := range cs {
		n := c.Reclaim(p.opts.LeaseTTL, now)
		if n == 0 {
			continue
		}
		reclaimed += n
		p.mu.Lock()
		p.stats.Requeued += n
		p.stats.Reclaimed += n
		p.mu.Unlock()
		p.log.Info("reclaimed expired shard leases",
			"key", shortKey(c.key), "count", n, "ttl", p.opts.LeaseTTL)
	}
	return reclaimed
}

// record registers a fresh lease with its owning coordinator and stamps
// the pool's TTL on it so workers can pace keepalives inside it.
func (p *ShardPool) record(c *Coordinator, l *ShardLease, worker string) {
	l.LeaseTTLSeconds = p.opts.LeaseTTL.Seconds()
	p.mu.Lock()
	p.owner[l.Lease] = c
	p.stats.Leased++
	if p.stats.Workers == nil {
		p.stats.Workers = map[string]int{}
	}
	p.stats.Workers[worker]++
	p.mu.Unlock()
	p.log.Debug("shard leased", "lease", l.Lease, "worker", worker,
		"shard", l.Range.Index, "start", l.Range.Start, "end", l.Range.End)
}

// ownerOf resolves a lease to its campaign, nil when the pool no longer
// tracks it.
func (p *ShardPool) ownerOf(leaseID string) *Coordinator {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.owner[leaseID]
}

// settle forgets a lease its coordinator accepted back and counts the
// event in one ShardStats field.
func (p *ShardPool) settle(leaseID string, field *int) {
	p.mu.Lock()
	delete(p.owner, leaseID)
	*field++
	p.mu.Unlock()
}

// Progress routes a worker's in-flight tally to the owning coordinator.
// An unknown lease answers cancel=true: the campaign is gone and the
// worker should abandon the shard.
func (p *ShardPool) Progress(leaseID string, done, failures int) (cancel bool) {
	c := p.ownerOf(leaseID)
	if c == nil {
		return true
	}
	return c.Progress(leaseID, done, failures)
}

// Complete merges a finished shard into its campaign.
func (p *ShardPool) Complete(res ShardResult) error {
	c := p.ownerOf(res.Lease)
	if c == nil {
		return ErrNoLease
	}
	err := c.Complete(res)
	if err == nil {
		p.settle(res.Lease, &p.stats.Completed)
		p.log.Debug("shard completed", "lease", res.Lease,
			"experiments", len(res.Output.Indices))
	}
	return err
}

// Fail releases a lease after a worker-side error.
func (p *ShardPool) Fail(leaseID, msg string) error {
	c := p.ownerOf(leaseID)
	if c == nil {
		return ErrNoLease
	}
	err := c.Fail(leaseID, msg)
	if err == nil {
		p.settle(leaseID, &p.stats.Requeued)
		p.log.Info("shard failed by worker, requeued", "lease", leaseID, "error", msg)
	}
	return err
}

// unregister drops a finished campaign and its outstanding leases.
func (p *ShardPool) unregister(c *Coordinator) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.active = slices.DeleteFunc(p.active, func(a *Coordinator) bool { return a == c })
	maps.DeleteFunc(p.owner, func(_ string, owner *Coordinator) bool { return owner == c })
}

// Stats returns the counters accumulated so far.
func (p *ShardPool) Stats() ShardStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.stats
	st.Workers = maps.Clone(p.stats.Workers)
	return st
}

// ExecuteSharded runs one campaign split into `shards` deterministic
// experiment-range shards on `workers` in-process shard executors (0 =
// GOMAXPROCS) and returns the canonical outcome — with early stopping
// off, byte-identical to Execute for the same request. It is the
// single-binary multi-worker mode behind `faultcampaign -shards`.
func ExecuteSharded(ctx context.Context, req Request, shards, workers int, tap Tap) (*Outcome, error) {
	return NewShardPool(ShardPoolOptions{Shards: shards}).Execute(ctx, req, workers, tap)
}
