package jobs

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// The shard layer splits one campaign into deterministic experiment-range
// shards and merges the executed ranges back into the canonical outcome.
//
// The currency is an index range over the campaign's deterministic
// experiment expansion (experimentsFor): every worker — in-process
// goroutine or remote `faultserverd -worker` — expands the identical
// list from the normalized request, so a shard is fully described by
// [Start,End) and the union of any partition of [0,N) reassembles the
// exact per-experiment array an unsharded run produces. With early
// stopping off, sharded and unsharded campaigns are therefore
// byte-identical; scheduling (shard count, worker count, lease order)
// can never change a result.
//
// Adaptive early stopping folds live shard tallies into a progressive
// Pf estimate; once the Wilson half-width reaches the request's epsilon
// the coordinator stops leasing, cancels outstanding shards, and
// finalizes over the experiments that completed.
//
// This file is the campaign's state machine and nothing else: it starts
// no goroutine, resolves no engine, and neither counts nor logs — the
// ShardPool (pool.go) does those around it, and RunLease (lease.go) is
// how a worker executes what it leased — so FuzzCoordinatorModel can
// drive arbitrary protocol interleavings against it without an engine.

// ErrNoLease reports a lease the coordinator no longer tracks: the shard
// was reclaimed, its campaign finished, or the lease never existed. A
// worker holding it should discard the shard and ask for new work.
var ErrNoLease = errors.New("jobs: unknown or expired shard lease")

// maxShardAttempts bounds how often one shard is re-leased after
// explicit worker failures before the whole campaign is declared
// failed: a shard that fails deterministically (e.g. its workload
// cannot build) would otherwise bounce between workers forever.
const maxShardAttempts = 3

// maxShardReclaims separately bounds TTL reclaims of one shard. A
// reclaim usually means a dead worker, not a poisoned shard — workers
// send keepalives, so a slow shard is not reclaimed — but a shard whose
// every worker dies silently (e.g. an input that crashes the process
// before it can report failure) must still not bounce forever. The
// bound is much looser than maxShardAttempts because reclaims are
// expected during rolling worker restarts.
const maxShardReclaims = 10

// ShardRange is one contiguous experiment range of a sharded campaign.
// Index identifies the shard within the campaign's plan; requeued
// remainders keep their parent's index.
type ShardRange struct {
	Index int `json:"index"`
	Start int `json:"start"`
	End   int `json:"end"`
}

// PlanShards splits [0,n) into at most k contiguous, non-empty,
// near-equal ranges in ascending order. The plan is a pure function of
// (n, k); workers never see it — they only execute the ranges they
// lease — so any partition of [0,n), planned or hand-written, merges to
// the same campaign.
func PlanShards(n, k int) []ShardRange {
	if n <= 0 {
		return nil
	}
	if k <= 0 {
		k = 1
	}
	if k > n {
		k = n
	}
	out := make([]ShardRange, k)
	base, rem := n/k, n%k
	start := 0
	for i := range out {
		size := base
		if i < rem {
			size++
		}
		out[i] = ShardRange{Index: i, Start: start, End: start + size}
		start += size
	}
	return out
}

// ShardLease hands one shard to a worker: the lease token to report
// under, the campaign's content key, the normalized request to expand,
// and the experiment range to execute.
type ShardLease struct {
	Lease   string     `json:"lease"`
	Key     string     `json:"key"`
	Request Request    `json:"request"`
	Range   ShardRange `json:"range"`
	// Total is the campaign's full experiment count (for progress
	// display and report throttling on the worker side).
	Total int `json:"total"`
	// LeaseTTLSeconds tells the worker how long the coordinator waits
	// for a silent lease before reclaiming it; workers pace their
	// keepalive progress reports well inside it.
	LeaseTTLSeconds float64 `json:"lease_ttl_seconds,omitempty"`
}

// ShardResult is a worker's final report for a leased shard.
type ShardResult struct {
	Lease  string      `json:"lease"`
	Output ShardOutput `json:"output"`
}

// leaseCounter makes lease ids process-unique.
var leaseCounter atomic.Int64

// shardPersist is the durability seam between the shard layer and the
// manager's write-ahead journal: coordinators report lifecycle events
// through it and pull a resumed campaign's journaled completed shards
// from it. A nil value means in-memory operation.
type shardPersist interface {
	// ShardEvent appends one journal record (completed shards are synced
	// soon after, without the caller waiting; the rest are breadcrumbs).
	ShardEvent(typ, key string, data interface{})
	// TakeRecovered hands over the completed shard outputs journaled for
	// a campaign before the last crash, exactly once.
	TakeRecovered(key string) []ShardOutput
}

// shardLease is the coordinator-side lease record.
type shardLease struct {
	id       string
	rng      ShardRange
	tally    progressTally // last reported in-flight progress; never journaled
	lastSeen time.Time
}

// progressTally is the unit of campaign progress accounting: how many
// experiments have completed and how many of them propagated to a
// failure. Shard workers report tallies, the coordinator folds them, and
// the folded tally drives both the streamed progressive Pf estimate and
// the adaptive early-stopping decision.
//
// Folding is exact, order-independent and loss-free: a campaign's merged
// tally is identical no matter how its experiment set was partitioned
// into shards, which is what keeps sharded and unsharded campaigns
// statistically — and, with early stopping off, bit-for-bit — equivalent.
type progressTally struct {
	Done, Failures int
}

// Add folds another tally into t.
func (t *progressTally) Add(u progressTally) {
	t.Done += u.Done
	t.Failures += u.Failures
}

// Estimate returns the progressive Pf point estimate together with its
// Wilson interval at confidence level z. With no completed experiments
// the point estimate is 0 but the interval is the vacuous (0,1): that
// pair is what lets a progress-stream consumer distinguish "no data yet"
// from a genuine zero-failure estimate, whose interval tightens around 0
// as Done grows. Emit all three together — a bare Pf of 0 is ambiguous.
func (t progressTally) Estimate(z float64) (pf, lo, hi float64) {
	if t.Done > 0 {
		pf = float64(t.Failures) / float64(t.Done)
	}
	lo, hi = stats.WilsonCI(t.Failures, t.Done, z)
	return pf, lo, hi
}

// Converged reports whether the tally satisfies the adaptive stopping
// rule: at least one completed experiment and a Wilson half-width at or
// below epsilon. epsilon <= 0 disables the rule (campaigns run to
// completion), matching the job service's "off by default" contract.
func (t progressTally) Converged(epsilon, z float64) bool {
	return epsilon > 0 && t.Done > 0 && stats.HalfWidth(t.Failures, t.Done, z) <= epsilon
}

// Coordinator owns one sharded campaign: it plans the ranges, leases
// them to workers, folds reported tallies into the progressive Pf and
// its Wilson interval, applies the adaptive stopping rule, and merges
// completed ranges into the canonical outcome. It is safe for
// concurrent use by any number of workers.
type Coordinator struct {
	key   string
	req   Request // normalized
	total int
	// meta shared by every shard of the campaign, cross-checked on merge.
	goldenCycles uint64
	checkpointed bool

	// onProgress, when non-nil, observes folded tallies (called without
	// the coordinator lock held).
	onProgress func(t progressTally, total int)
	// persist, when non-nil, journals shard lifecycle events so a
	// restarted coordinator resumes from the completed shards.
	persist shardPersist
	// planned is the number of shards left to lease once recovered work
	// was folded in; fixed at construction.
	planned int

	mu       sync.Mutex
	pending  []ShardRange
	attempts map[int]int
	reclaims map[int]int
	leases   map[string]*shardLease
	slots    []ExperimentOutcome
	have     []bool
	folded   progressTally // over folded (merged) experiments only
	stopped  bool          // epsilon rule fired; no more leases
	done     bool
	outcome  *Outcome
	err      error
	finished chan struct{}
}

// newCoordinator plans a campaign of total experiments into shards. The
// caller has resolved everything an engine knows — the normalized
// request and its key, the expansion's size, the golden-run metadata
// every shard must echo — so the state machine itself never touches
// one. With persist set, any completed shards journaled before a crash
// are folded in before leasing begins — the resumed campaign only
// executes the ranges that never durably finished, and because the
// expansion is a pure function of the request the merged outcome is
// byte-identical to an undisturbed run.
func newCoordinator(key string, n Request, total int, goldenCycles uint64, checkpointed bool, shards int,
	onProgress func(progressTally, int), persist shardPersist) *Coordinator {
	c := &Coordinator{
		key:          key,
		req:          n,
		total:        total,
		goldenCycles: goldenCycles,
		checkpointed: checkpointed,
		onProgress:   onProgress,
		persist:      persist,
		pending:      PlanShards(total, shards),
		attempts:     map[int]int{},
		reclaims:     map[int]int{},
		leases:       map[string]*shardLease{},
		slots:        make([]ExperimentOutcome, total),
		have:         make([]bool, total),
		finished:     make(chan struct{}),
	}
	if persist != nil {
		persist.ShardEvent(recShardPlanned, key, struct {
			Total  int `json:"total"`
			Shards int `json:"shards"`
		}{total, len(c.pending)})
		c.preloadRecovered(persist.TakeRecovered(key))
	}
	c.planned = len(c.pending)
	if total == 0 {
		c.finishLocked() // degenerate empty campaign
	}
	return c
}

// preloadRecovered folds journaled completed shard outputs into the
// fresh plan and drops the pending ranges they fully cover. It runs
// before the coordinator is visible to any worker, so no locking.
// Defensive by construction: outputs whose golden-run metadata diverges
// from the freshly simulated run, whose indices fall outside the
// campaign, or that duplicate already-folded indices (a shard requeued
// and completed twice before the crash) are skipped — the worst a bad
// journal can do is re-execute work. The shard count need not match the
// previous process's: coverage is tracked per experiment index, so a
// plan resumed under a different -shards flag still only re-runs the
// uncovered remainder of each range.
func (c *Coordinator) preloadRecovered(outs []ShardOutput) {
	for _, out := range outs {
		if !c.sameGolden(out) {
			continue // journaled under a different engine; re-execute
		}
		if len(out.Indices) != len(out.Experiments) {
			continue
		}
		c.foldLocked(out)
	}
	kept := c.pending[:0]
	for _, rng := range c.pending {
		covered := true
		for idx := rng.Start; idx < rng.End; idx++ {
			if !c.have[idx] {
				covered = false
				break
			}
		}
		if !covered {
			kept = append(kept, rng)
		}
	}
	c.pending = kept
	c.maybeStopLocked()
	c.maybeFinishLocked()
}

// sameGolden reports whether a shard output echoes the golden-run
// metadata the campaign was planned under.
func (c *Coordinator) sameGolden(out ShardOutput) bool {
	return out.GoldenCycles == c.goldenCycles && out.Checkpointed == c.checkpointed
}

// foldLocked merges a shard output's experiments into the campaign, each
// index at most once and none outside it: the one merge loop behind live
// completions and recovered ones. out.Indices and out.Experiments have
// equal length (both callers check).
func (c *Coordinator) foldLocked(out ShardOutput) {
	for i, idx := range out.Indices {
		if idx < 0 || idx >= c.total || c.have[idx] {
			continue
		}
		c.have[idx] = true
		c.slots[idx] = out.Experiments[i]
		c.folded.Done++
		if out.Experiments[i].Outcome != noEffect {
			c.folded.Failures++
		}
	}
}

// Lease hands the next pending shard to a worker, or reports no work.
func (c *Coordinator) Lease(worker string) (*ShardLease, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done || c.stopped || len(c.pending) == 0 {
		return nil, false
	}
	rng := c.pending[0]
	c.pending = c.pending[1:]
	l := &shardLease{
		// The process-wide counter keeps lease ids unique even across two
		// coordinators for the same campaign key (cancel + resubmit).
		id:  fmt.Sprintf("%s-%d", shortKey(c.key), leaseCounter.Add(1)),
		rng: rng,
		// Lease liveness is scheduling state, never result state: TTL
		// reclaim decides who re-executes a range, not what it computes.
		lastSeen: time.Now(), //lint:allow det lease keepalive timestamp
	}
	c.leases[l.id] = l
	if c.persist != nil {
		// Breadcrumb only: a lease with no completion record is exactly
		// what recovery treats as never-happened, so the shard is pending
		// again after a restart (crash-only reclaim).
		c.persist.ShardEvent(recShardLeased, c.key, struct {
			Lease  string `json:"lease"`
			Worker string `json:"worker"`
			ShardRange
		}{l.id, worker, rng})
	}
	return &ShardLease{Lease: l.id, Key: c.key, Request: c.req, Range: rng, Total: c.total}, true
}

// Progress folds a worker's in-flight tally for a leased shard and
// reports whether the worker should cancel the shard (the campaign
// stopped, converged, or no longer tracks the lease). done and failures
// are shard-local absolute counts.
func (c *Coordinator) Progress(leaseID string, done, failures int) (cancel bool) {
	c.mu.Lock()
	l := c.leases[leaseID]
	if l == nil {
		c.mu.Unlock()
		return true
	}
	// Clamp the reported tally into the leased range: a buggy or
	// malicious worker must not be able to inflate the progressive Pf,
	// drive the folded tally negative, or falsely trip the epsilon stop
	// rule with counts its shard cannot contain.
	done = min(max(done, 0), l.rng.End-l.rng.Start)
	failures = min(max(failures, 0), done)
	l.tally = progressTally{Done: done, Failures: failures}
	l.lastSeen = time.Now() //lint:allow det lease keepalive timestamp
	c.maybeStopLocked()
	stop := c.stopped || c.done
	t := c.tallyLocked()
	c.mu.Unlock()
	c.notify(t)
	return stop
}

// Complete merges a finished (or, once the campaign stopped, partial)
// shard. An incomplete range reported while the campaign is still
// running means the worker was cancelled externally: nothing is folded
// and the shard is requeued for another worker.
func (c *Coordinator) Complete(res ShardResult) error {
	c.mu.Lock()
	l := c.leases[res.Lease]
	if l == nil {
		c.mu.Unlock()
		return ErrNoLease
	}
	out := res.Output
	if len(out.Indices) != len(out.Experiments) {
		c.mu.Unlock()
		return fmt.Errorf("jobs: shard result with %d indices but %d experiments", len(out.Indices), len(out.Experiments))
	}
	// Strictly ascending inside the lease, as runRange emits them: a result
	// padded with repeats to the shard's length would otherwise pass for
	// complete, fold less than its range, and leave a campaign with nothing
	// pending, nothing leased and experiments missing — waiting forever.
	prev := l.rng.Start - 1
	for _, idx := range out.Indices {
		if idx <= prev || idx >= l.rng.End {
			c.mu.Unlock()
			return fmt.Errorf("jobs: shard result index %d repeated, out of order or outside leased range [%d,%d)", idx, l.rng.Start, l.rng.End)
		}
		prev = idx
	}
	delete(c.leases, res.Lease)
	complete := len(out.Indices) == l.rng.End-l.rng.Start
	if !complete && !c.stopped {
		// Externally cancelled worker: requeue the whole range.
		c.requeueLocked(l, "incomplete shard result")
		t := c.tallyLocked()
		c.mu.Unlock()
		c.notify(t)
		return nil
	}
	// Golden-run metadata must agree across every shard of one campaign —
	// the coordinator simulated the same golden run while planning. A
	// mismatch means a worker executed a different campaign than the
	// coordinator planned, and merging would silently corrupt the result.
	if !c.sameGolden(out) {
		c.fatalLocked(fmt.Errorf("jobs: shard golden-run metadata diverged (%d/%v vs %d/%v)",
			out.GoldenCycles, out.Checkpointed, c.goldenCycles, c.checkpointed))
		c.mu.Unlock()
		return nil
	}
	if complete && c.persist != nil {
		// The durable record of this shard's work — its loss would re-execute
		// the whole range after a crash — written before the fold that may
		// finish the campaign, under the lock like Lease's breadcrumb: whoever
		// sees the campaign finished, and retires the job, finds every shard
		// record ahead of that in the journal. The write is not waited on to
		// reach the disk; a crash before it does merely re-runs the shard, and
		// determinism folds identical bytes.
		c.persist.ShardEvent(recShardCompleted, c.key, out)
	}
	c.foldLocked(out)
	c.maybeStopLocked()
	c.maybeFinishLocked()
	t := c.tallyLocked()
	c.mu.Unlock()
	c.notify(t)
	return nil
}

// Fail releases a lease after a worker error and requeues its shard; a
// shard that keeps failing takes the campaign down with it.
func (c *Coordinator) Fail(leaseID, msg string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[leaseID]
	if l == nil {
		return ErrNoLease
	}
	delete(c.leases, leaseID)
	c.requeueLocked(l, msg)
	return nil
}

// requeueLocked puts a lease released by its worker back in the queue and
// charges the shard one attempt.
func (c *Coordinator) requeueLocked(l *shardLease, msg string) {
	c.strikeLocked(l, c.attempts, maxShardAttempts, "failed", "last: "+msg)
}

// strikeLocked puts a released lease's range back in the queue, unless
// the campaign already stopped (its remainder is then moot) or this
// release is the shard's bound-th of its kind (campaign failure). strikes
// is the per-shard count the release is charged to.
func (c *Coordinator) strikeLocked(l *shardLease, strikes map[int]int, bound int, verb, detail string) {
	if c.stopped || c.done {
		c.maybeFinishLocked()
		return
	}
	strikes[l.rng.Index]++
	if n := strikes[l.rng.Index]; n >= bound {
		c.fatalLocked(fmt.Errorf("jobs: shard %d %s %d times, %s", l.rng.Index, verb, n, detail))
		return
	}
	c.pending = append(c.pending, l.rng)
}

// Reclaim requeues shards whose leases went silent for longer than ttl
// as of now — the worker crashed or lost its network — so a campaign
// survives worker death, and reports how many it took back. Reclaims are
// accounted separately from explicit failures: live workers keepalive
// inside the TTL, so a reclaim indicts the worker, not the shard, and
// must not trip the tight poison bound — only the loose maxShardReclaims
// backstop.
func (c *Coordinator) Reclaim(ttl time.Duration, now time.Time) (reclaimed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var expired []*shardLease
	for _, l := range c.leases {
		if now.Sub(l.lastSeen) > ttl {
			expired = append(expired, l)
		}
	}
	// Requeue in ascending shard order: map iteration order would hand
	// the reclaimed ranges back to workers in a different order every
	// run, and reclaim behaviour — which shard trips the poison bound
	// first, which range the next lease serves — should be reproducible.
	sort.Slice(expired, func(i, j int) bool { return expired[i].rng.Index < expired[j].rng.Index })
	for _, l := range expired {
		if c.err != nil {
			break // an earlier reclaim poisoned the campaign and dropped every lease
		}
		delete(c.leases, l.id)
		reclaimed++
		c.strikeLocked(l, c.reclaims, maxShardReclaims, "reclaimed", "every worker died mid-shard")
	}
	return reclaimed
}

// tallyLocked is the live progressive tally: folded experiments plus
// every lease's last reported in-flight progress.
func (c *Coordinator) tallyLocked() progressTally {
	t := c.folded
	for _, l := range c.leases {
		t.Add(l.tally)
	}
	return t
}

// maybeStopLocked applies the adaptive stopping rule to the live tally.
func (c *Coordinator) maybeStopLocked() {
	if c.stopped || c.done || c.req.Epsilon <= 0 {
		return
	}
	if c.tallyLocked().Converged(c.req.Epsilon, stats.Z95) {
		c.stopped = true
		c.pending = nil
		c.maybeFinishLocked()
	}
}

// maybeFinishLocked finalizes the campaign when nothing remains
// outstanding: all slots folded, or — once stopped — every lease has
// reported back its partial.
func (c *Coordinator) maybeFinishLocked() {
	if c.done {
		return
	}
	if c.stopped {
		if len(c.leases) > 0 {
			return
		}
	} else if len(c.pending) > 0 || len(c.leases) > 0 || c.folded.Done < c.total {
		return
	}
	c.finishLocked()
}

// finishLocked assembles the canonical outcome from the folded slots: the
// slots themselves once every index is folded — foldLocked writes none
// after that — and a stopped campaign's folded ones, compacted.
func (c *Coordinator) finishLocked() {
	if c.done {
		return
	}
	exps := c.slots
	if c.folded.Done < c.total {
		exps = make([]ExperimentOutcome, 0, c.folded.Done)
		for i, ok := range c.have {
			if ok {
				exps = append(exps, c.slots[i])
			}
		}
	}
	c.outcome = assembleOutcome(c.req, c.goldenCycles, c.checkpointed, c.total, exps)
	c.done = true
	close(c.finished)
}

// fatalLocked fails the whole campaign: a shard exhausted its failure or
// reclaim bound, or reported diverged golden-run metadata. It is the only
// place the campaign's error is set, so an error from Wait that is not
// the waiter's own context error means exactly this.
func (c *Coordinator) fatalLocked(err error) {
	if c.done {
		return
	}
	c.err = err
	c.pending = nil
	c.leases = map[string]*shardLease{}
	c.done = true
	close(c.finished)
}

func (c *Coordinator) notify(t progressTally) {
	if c.onProgress != nil {
		c.onProgress(t, c.total)
	}
}

// Wait blocks until the campaign finishes or ctx expires and returns the
// merged outcome.
func (c *Coordinator) Wait(ctx context.Context) (*Outcome, error) {
	select {
	case <-c.finished:
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.outcome, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}
