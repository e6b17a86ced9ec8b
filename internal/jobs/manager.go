package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/stats"
)

// State is a job's lifecycle phase.
type State string

// Job states. Queued and Running jobs are in flight (new submissions with
// the same key coalesce onto them); Done jobs feed the result cache;
// Failed and Cancelled jobs release their key so a resubmission retries.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Errors returned by Manager accessors.
var (
	ErrNotFound  = errors.New("jobs: no such job")
	ErrQueueFull = errors.New("jobs: queue full")
	ErrClosed    = errors.New("jobs: manager closed")
	ErrTerminal  = errors.New("jobs: job already terminal")
)

// ManagerOptions sizes the job service.
type ManagerOptions struct {
	// Concurrency is the number of jobs executed in parallel (the worker
	// pool size). Default 2.
	Concurrency int
	// QueueDepth bounds the number of queued-but-not-running jobs;
	// submissions beyond it fail with ErrQueueFull. Default 64.
	QueueDepth int
	// CampaignWorkers bounds each campaign's own experiment parallelism
	// (0 = GOMAXPROCS). The total engine parallelism is roughly
	// Concurrency x CampaignWorkers.
	CampaignWorkers int
	// MaxJobs bounds how many jobs (and cached outcomes) the manager
	// retains: when exceeded, the oldest terminal jobs are evicted —
	// including their cache entries — so a long-running daemon's memory
	// stays bounded. In-flight jobs are never evicted. Default 512.
	MaxJobs int
	// Shards, when above 1, executes every campaign through a shard pool:
	// the campaign is split into that many deterministic experiment-range
	// shards, drained by in-process shard workers and by any remote
	// workers pulling leases over the HTTP shard surface. Results are
	// bit-identical to unsharded execution (sharding is scheduling, not
	// content), so Shards deliberately does not participate in request
	// content addresses.
	Shards int
	// ShardLocalWorkers bounds the in-process shard executors per
	// campaign: 0 selects CampaignWorkers (GOMAXPROCS when that is also
	// unset), -1 disables local execution so shards are served only to
	// remote workers.
	ShardLocalWorkers int
	// ShardLeaseTTL is how long a silent shard lease pins its shard
	// before it is reclaimed for another worker. Default 2 minutes.
	ShardLeaseTTL time.Duration
	// DataDir, when set, makes the service durable: completed outcomes
	// are committed to an on-disk content-addressed result store and job/
	// shard lifecycle events to a write-ahead journal under this
	// directory, so a restarted process serves finished campaigns from
	// disk and resumes in-flight ones from their last completed shard.
	// Only OpenManager honours it — NewManager stays in-memory (it
	// cannot surface an I/O error) and ignores the field.
	DataDir string
	// Executor overrides the campaign executor; nil selects Execute (or
	// the shard pool's Execute when Shards > 1). Tests substitute
	// deterministic or blocking executors here.
	Executor func(ctx context.Context, req Request, workers int, tap Tap) (*Outcome, error)
	// Obs, when non-nil, receives the service's metrics: manager counters
	// read from Stats, a queue-depth gauge, job and per-stage latency
	// histograms, shard-pool counters, the engine's counters, and — under
	// OpenManager — store/journal gauges. Pure observation with a no-op
	// default: a manager without a registry produces byte-identical
	// outcomes and content addresses.
	Obs *obs.Registry
	// Log, when non-nil, receives structured job lifecycle logs with
	// per-job and per-shard attributes. Nil discards them — the library
	// path stays silent; the daemon wires its slog handler here.
	Log *slog.Logger
}

// Stats counts what the manager has done since it started. Submitted is
// every accepted submission; Coalesced are submissions that joined an
// in-flight job; CacheHits are submissions answered from the completed
// result cache; Executed are campaigns that actually ran the engine.
type Stats struct {
	Submitted int `json:"submitted"`
	Coalesced int `json:"coalesced"`
	CacheHits int `json:"cache_hits"`
	Executed  int `json:"executed"`
}

// Status is an external snapshot of one job.
type Status struct {
	ID string `json:"id"`
	// Key is the request's content address (see Request.Key).
	Key     string    `json:"key"`
	State   State     `json:"state"`
	Request Request   `json:"request"`
	Created time.Time `json:"created"`
	// Error is set on failed and cancelled jobs.
	Error    string   `json:"error,omitempty"`
	Progress Progress `json:"progress"`
	// Result is present once the job is done; List omits it (fetch the
	// job by ID, or the server's result endpoint, for the payload).
	Result *Outcome `json:"result,omitempty"`
}

// job is the manager-internal record; all fields are guarded by
// Manager.mu except the immutable identity fields.
type job struct {
	id      string
	key     string
	req     Request // normalized
	created time.Time

	state  State
	errMsg string
	result *Outcome
	// encoded is result in its canonical encoding (EncodeOutcome), made
	// once when the job finishes — or read back from the store — and what
	// the store and the result endpoint are handed from then on.
	encoded  []byte
	done     int
	total    int
	failures int
	// shown and shownAt are the done count and the time of the latest
	// intermediate snapshot (shownAt: of the job's start before there is
	// one); see progressGap.
	shown   int
	shownAt time.Time

	cancel   context.CancelFunc
	watchers []chan Progress
	finished chan struct{}
}

// Manager is the campaign job scheduler: a bounded worker pool over a
// submission queue, a content-addressed cache of completed outcomes, and
// per-job progress fan-out. All methods are safe for concurrent use.
type Manager struct {
	opts    ManagerOptions
	exec    func(ctx context.Context, req Request, workers int, tap Tap) (*Outcome, error)
	pool    *ShardPool   // non-nil when opts.Shards > 1 selected sharded execution
	persist *persistence // non-nil when OpenManager bound a data directory

	met managerMetrics
	log *slog.Logger

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu      sync.Mutex
	cond    *sync.Cond // signals pending work or closure to workers
	pending []*job     // submission FIFO; may hold cancelled-while-queued entries
	queued  int        // live queued jobs (excludes cancelled-in-queue)
	closed  bool
	seq     int
	jobs    map[string]*job // by ID
	order   []*job          // submission order, for List
	byKey   map[string]*job // latest non-failed job per content key
	stats   Stats
}

// NewManager starts an in-memory job service with its worker pool
// running. For a durable service backed by a data directory, use
// OpenManager (this constructor ignores ManagerOptions.DataDir — it has
// no way to report the I/O errors durability can hit).
func NewManager(opts ManagerOptions) *Manager {
	return newManager(opts, nil)
}

func newManager(opts ManagerOptions, p *persistence) *Manager {
	if opts.Concurrency <= 0 {
		opts.Concurrency = 2
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 64
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 512
	}
	m := &Manager{
		opts:    opts,
		exec:    opts.Executor,
		persist: p,
		jobs:    map[string]*job{},
		byKey:   map[string]*job{},
		log:     opts.Log,
	}
	if m.log == nil {
		m.log = slog.New(slog.DiscardHandler)
	}
	if p != nil {
		p.log = m.log
		p.registerMetrics(opts.Obs)
	}
	if m.exec == nil {
		if opts.Shards > 1 {
			m.pool = NewShardPool(ShardPoolOptions{
				Shards:       opts.Shards,
				LocalWorkers: opts.ShardLocalWorkers,
				LeaseTTL:     opts.ShardLeaseTTL,
				Obs:          opts.Obs,
				Log:          m.log,
				persist:      poolPersist(p),
			})
			m.exec = m.pool.Execute
		} else {
			reg := opts.Obs
			m.exec = func(ctx context.Context, req Request, workers int, tap Tap) (*Outcome, error) {
				return ExecuteObs(ctx, req, workers, tap, reg)
			}
		}
	}
	m.registerMetrics(opts.Obs)
	m.cond = sync.NewCond(&m.mu)
	m.baseCtx, m.baseCancel = context.WithCancel(context.Background())
	for i := 0; i < opts.Concurrency; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Close cancels every in-flight job, stops the workers and waits for them
// to drain (queued jobs are popped and immediately cancelled via the
// already-dead base context). Submissions after Close fail with ErrClosed.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()
	m.baseCancel()
	m.wg.Wait()
	if m.pool != nil {
		// Every campaign has returned; its local shard workers may still be
		// reporting the shard they were on, to the journal closed next.
		m.pool.Wait()
	}
	if m.persist != nil {
		m.persist.Close()
	}
}

// Submit accepts a campaign request. A request whose content key matches
// a queued or running job coalesces onto it; one matching a completed
// outcome is answered from the cache as an already-done job. Either way
// the engine runs at most once per key, the returned status carries the
// job the caller should follow, and `fresh` reports whether this
// submission created a new job (false for coalesced and cached answers).
func (m *Manager) Submit(req Request) (st Status, fresh bool, err error) {
	n, key, err := req.keyed()
	if err != nil {
		return Status{}, false, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Status{}, false, ErrClosed
	}
	if j := m.byKey[key]; j != nil {
		m.stats.Submitted++
		if j.state == StateDone {
			m.stats.CacheHits++
		} else {
			m.stats.Coalesced++
		}
		return m.statusLocked(j), false, nil
	}
	// The persistent result store extends the cache across process
	// lifetimes: a campaign completed before the last restart answers
	// here without touching the engine.
	if m.persist != nil {
		if out, encoded, ok := m.persist.loadOutcome(key); ok {
			// Born done, so status, result, watch and wait all behave exactly
			// as for a job that completed in this process. No lifecycle
			// records are journaled — the outcome is already durable under
			// its content address.
			m.stats.Submitted++
			m.stats.CacheHits++
			return m.statusLocked(m.admitLocked(key, n, StateDone, out, encoded)), false, nil
		}
	}
	// The bound counts live queued jobs; cancelled-while-queued entries
	// are spliced out of the FIFO by Cancel and free their slot.
	if m.queued >= m.opts.QueueDepth {
		return Status{}, false, ErrQueueFull
	}
	// Durably record the submission before admitting it: a job the
	// journal cannot remember would vanish in the next crash, which is
	// worse than failing the submit now.
	if m.persist != nil {
		if err := m.persist.journalSubmit(key, n); err != nil {
			return Status{}, false, fmt.Errorf("jobs: journaling submission: %w", err)
		}
	}
	m.stats.Submitted++
	j := m.admitLocked(key, n, StateQueued, nil, nil)
	m.log.Info("job submitted", "job", j.id, "key", shortKey(key), "workload", n.Workload)
	return m.statusLocked(j), true, nil
}

// shortKey abbreviates a content address for log attrs, mirroring the
// 12-hex prefix lease ids already use.
func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// admitLocked creates a job for a normalized request and registers it
// under its id, in submission order and as the latest job of its content
// key — the one place a job comes into being. A queued job joins the
// pending FIFO and wakes a worker; any other state is terminal (a
// persistent-store hit arrives done, carrying its result and the stored
// encoding of it) and the job is born finished. Whether to admit at all —
// queue bound, journaling, recovered-shard stash — is the caller's business.
func (m *Manager) admitLocked(key string, n Request, state State, result *Outcome, encoded []byte) *job {
	m.seq++
	j := &job{
		id:       fmt.Sprintf("job-%06d", m.seq),
		key:      key,
		req:      n,
		created:  time.Now().UTC(), //lint:allow det status-API timestamp, not result state
		state:    state,
		result:   result,
		encoded:  encoded,
		finished: make(chan struct{}),
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j)
	m.byKey[key] = j
	if state == StateQueued {
		m.pending = append(m.pending, j)
		m.queued++
		m.cond.Signal()
	} else {
		close(j.finished)
	}
	m.pruneLocked()
	return j
}

// submitRecovered requeues one journal-recovered in-flight job on boot.
// It bypasses the queue-depth bound (the job was admitted before the
// crash) and does not journal — the compacted journal already carries
// its submission record — but it does stash the job's durable completed
// shards for the coordinator that will resume it.
func (m *Manager) submitRecovered(rj *RecoveredJob) error {
	n, key, err := rj.Request.keyed()
	if err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.byKey[key] != nil {
		return nil // duplicate submission records collapsed to one job
	}
	m.persist.stashRecovered(key, rj.Completed)
	m.stats.Submitted++
	m.admitLocked(key, n, StateQueued, nil, nil)
	return nil
}

// pruneLocked evicts the oldest terminal jobs — and their cached
// outcomes — once the retention bound is exceeded. In-flight jobs are
// skipped, so the manager can transiently hold more than MaxJobs when
// the backlog itself exceeds the bound.
func (m *Manager) pruneLocked() {
	excess := len(m.order) - m.opts.MaxJobs
	if excess <= 0 {
		return
	}
	kept := m.order[:0]
	for _, j := range m.order {
		if excess > 0 && j.state.Terminal() {
			excess--
			delete(m.jobs, j.id)
			if m.byKey[j.key] == j {
				delete(m.byKey, j.key)
			}
			continue
		}
		kept = append(kept, j)
	}
	m.order = kept
}

// Get returns a job's status snapshot.
func (m *Manager) Get(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Status{}, ErrNotFound
	}
	return m.statusLocked(j), nil
}

// Result returns a done job's outcome in its canonical encoding — the bytes
// EncodeOutcome writes, encoded once when the job finished — and nil, with
// the job's state, for a job that has none (yet). The caller must not
// modify them.
func (m *Manager) Result(id string) ([]byte, State, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, "", ErrNotFound
	}
	return j.encoded, j.state, nil
}

// List returns every job in submission order. Result payloads are
// omitted from list snapshots — a done campaign's Outcome embeds the full
// per-experiment array, so a list near the retention bound would re-ship
// megabytes per poll; fetch Get(id) or the result endpoint instead.
func (m *Manager) List() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Status, len(m.order))
	for i, j := range m.order {
		out[i] = m.statusLocked(j)
		out[i].Result = nil
	}
	return out
}

// ManagerStats returns the counters accumulated so far.
func (m *Manager) ManagerStats() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats
}

// ShardPool returns the manager's shard pool, or nil when sharded
// execution is not enabled. The HTTP layer serves shard leases to remote
// workers through it.
func (m *Manager) ShardPool() *ShardPool { return m.pool }

// Cancel stops a job and returns its status as of the cancellation: a
// queued job is cancelled immediately, a running one has its context
// cancelled and stops within one experiment granule. Terminal jobs
// return ErrTerminal. The status is snapshotted under the same lock —
// callers must not re-resolve the ID afterwards, since a finished job
// can be pruned at any moment.
func (m *Manager) Cancel(id string) (Status, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return Status{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.errMsg = "cancelled before start"
		m.queued--
		// Splice the job out of the pending FIFO now: leaving carcasses
		// for workers to skip would let a submit-and-cancel loop grow the
		// slice without bound while every worker is busy.
		for i, p := range m.pending {
			if p == j {
				m.pending = append(m.pending[:i], m.pending[i+1:]...)
				break
			}
		}
		m.finishLocked(j)
		return m.statusLocked(j), nil
	case StateRunning:
		// Release the content key now, not when the worker notices the
		// cancellation: a resubmission in that window must start a fresh
		// job rather than coalesce onto this dying one.
		if m.byKey[j.key] == j {
			delete(m.byKey, j.key)
		}
		j.cancel()
		return m.statusLocked(j), nil
	default:
		return m.statusLocked(j), ErrTerminal
	}
}

// progressGap is the least time between a job's start or intermediate
// progress snapshot and its next intermediate one, which is also at least a
// 64th of its experiments further on. A campaign shorter than the gap shows
// its watchers its state changes alone, however its shards interleave: how
// many snapshots a watcher reads does not hang on the host's load.
const progressGap = 50 * time.Millisecond

// Watch subscribes to a job's progress. The returned channel first yields
// the job's current snapshot, then incremental snapshots (paced by
// progressGap), and finally the terminal snapshot, after which it is
// closed. Slow consumers lose intermediate snapshots (newest wins), never
// the terminal one. The unsubscribe function releases the subscription
// early.
func (m *Manager) Watch(id string) (<-chan Progress, func(), error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j := m.jobs[id]
	if j == nil {
		return nil, nil, ErrNotFound
	}
	ch := make(chan Progress, 16)
	ch <- m.progressLocked(j)
	if j.state.Terminal() {
		close(ch)
		return ch, func() {}, nil
	}
	j.watchers = append(j.watchers, ch)
	unsub := func() {
		m.mu.Lock()
		defer m.mu.Unlock()
		for i, w := range j.watchers {
			if w == ch {
				j.watchers = append(j.watchers[:i], j.watchers[i+1:]...)
				close(ch)
				return
			}
		}
	}
	return ch, unsub, nil
}

// Wait blocks until the job reaches a terminal state (or ctx expires) and
// returns its final status.
func (m *Manager) Wait(ctx context.Context, id string) (Status, error) {
	m.mu.Lock()
	j := m.jobs[id]
	m.mu.Unlock()
	if j == nil {
		return Status{}, ErrNotFound
	}
	select {
	case <-j.finished:
		// Snapshot the captured job rather than re-resolving the ID: a
		// just-finished job can be pruned concurrently, and its waiters
		// must still see the final status.
		m.mu.Lock()
		defer m.mu.Unlock()
		return m.statusLocked(j), nil
	case <-ctx.Done():
		return Status{}, ctx.Err()
	}
}

// worker drains the pending FIFO until Close. After Close it keeps
// popping: queued jobs then run against the cancelled base context and
// terminate as cancelled immediately, so no waiter is left hanging.
func (m *Manager) worker() {
	defer m.wg.Done()
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for len(m.pending) == 0 && !m.closed {
			m.cond.Wait()
		}
		if len(m.pending) == 0 {
			return
		}
		j := m.pending[0]
		m.pending = m.pending[1:]
		if j.state != StateQueued { // cancelled while queued
			continue
		}
		m.queued--
		j.state = StateRunning
		ctx, cancel := context.WithCancel(m.baseCtx)
		j.cancel = cancel
		j.shownAt = time.Now() //lint:allow det progress-snapshot pacing, observation only
		m.notifyLocked(j)
		m.mu.Unlock()

		// The tracer rides the executor context so the unchanged Executor
		// seam still yields per-stage timings; its spans also join the
		// job-finished log line below.
		tr := obs.NewTracer(m.met.stageSeconds)
		m.log.Info("job started", "job", j.id, "key", shortKey(j.key), "workload", j.req.Workload)
		started := time.Now() //lint:allow det job-duration metric, observation only
		out, err := m.exec(obs.WithTracer(ctx, tr), j.req, m.opts.CampaignWorkers, func(done, total, failures int) {
			m.mu.Lock()
			j.done, j.total, j.failures = done, total, failures
			if done-j.shown > total/64 {
				//lint:allow det progress-snapshot pacing, observation only
				if now := time.Now(); now.Sub(j.shownAt) >= progressGap {
					j.shown, j.shownAt = done, now
					m.notifyLocked(j)
				}
			}
			m.mu.Unlock()
		})
		cancel()
		dur := time.Since(started) //lint:allow det job-duration metric, observation only
		m.met.jobSeconds.Observe(dur.Seconds())

		// The one encoding of the outcome: what the store commits and the
		// result endpoint serves.
		var encoded []byte
		if err == nil {
			endEncode := tr.Stage("encode")
			encoded, err = encodeOutcome(out)
			endEncode()
		}
		// Commit the outcome before the in-memory terminal transition
		// journals job_done: recovery treats a done record as "the result
		// is in the store", and the reverse order would open a crash
		// window where the record exists but the result does not.
		if m.persist != nil && err == nil {
			endCommit := tr.Stage("commit")
			m.persist.commitOutcome(j.key, encoded)
			endCommit()
		}
		m.mu.Lock()
		switch {
		case err == nil:
			j.state = StateDone
			j.result, j.encoded = out, encoded
			m.stats.Executed++
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			j.state = StateCancelled
			j.errMsg = err.Error()
		default:
			j.state = StateFailed
			j.errMsg = err.Error()
		}
		state, errMsg := j.state, j.errMsg
		m.finishLocked(j)
		m.mu.Unlock()

		args := []any{"job", j.id, "key", shortKey(j.key), "state", string(state), "duration_s", dur.Seconds()}
		for _, sp := range tr.Spans() {
			args = append(args, "stage_"+sp.Stage+"_s", sp.Seconds)
		}
		if errMsg != "" {
			args = append(args, "error", errMsg)
		}
		m.log.Info("job finished", args...)
		m.mu.Lock()
	}
}

// finishLocked publishes a job's terminal state: releases its content key
// unless it produced a cacheable outcome, emits the terminal progress
// snapshot, closes all watcher channels and unblocks waiters.
func (m *Manager) finishLocked(j *job) {
	if m.persist != nil {
		m.persist.journalJobEnd(j.state, j.key, j.errMsg)
	}
	if j.state == StateDone {
		// A cancelled-then-completed-anyway job had its key released at
		// Cancel; restore cacheability unless a fresh job took the key.
		if m.byKey[j.key] == nil {
			m.byKey[j.key] = j
		}
	} else if m.byKey[j.key] == j {
		delete(m.byKey, j.key)
	}
	m.notifyLocked(j)
	for _, ch := range j.watchers {
		close(ch)
	}
	j.watchers = nil
	close(j.finished)
}

// notifyLocked pushes the current progress snapshot to every watcher,
// dropping the oldest buffered snapshot when a watcher is full.
func (m *Manager) notifyLocked(j *job) {
	p := m.progressLocked(j)
	for _, ch := range j.watchers {
		select {
		case ch <- p:
		default:
			select {
			case <-ch:
			default:
			}
			select {
			case ch <- p:
			default:
			}
		}
	}
}

func (m *Manager) progressLocked(j *job) Progress {
	p := Progress{
		JobID:    j.id,
		State:    j.state,
		Done:     j.done,
		Total:    j.total,
		Failures: j.failures,
	}
	// Estimate emits the Wilson interval alongside the point estimate so
	// a Done==0 snapshot (Pf 0, interval (0,1)) is distinguishable from a
	// true zero-failure estimate (Pf 0, interval shrinking around 0).
	p.Pf, p.PfLow, p.PfHigh = progressTally{Done: j.done, Failures: j.failures}.Estimate(stats.Z95)
	if j.state == StateDone && j.result != nil {
		// The terminal snapshot reports the exact final numbers.
		p.Pf, p.PfLow, p.PfHigh = j.result.Pf, j.result.PfLow, j.result.PfHigh
		p.Done, p.Total, p.Failures = j.result.Injections, j.result.Injections, j.result.Failures
	}
	return p
}

func (m *Manager) statusLocked(j *job) Status {
	return Status{
		ID:       j.id,
		Key:      j.key,
		State:    j.state,
		Request:  j.req,
		Created:  j.created,
		Error:    j.errMsg,
		Progress: m.progressLocked(j),
		Result:   j.result,
	}
}
