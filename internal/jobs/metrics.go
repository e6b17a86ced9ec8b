package jobs

import (
	"sync"

	"repro/internal/obs"
)

// This file holds the job service's metrics. Everything is nil-safe: a
// manager built without ManagerOptions.Obs registers nothing and carries
// no-op histogram handles, so the in-memory library path behaves exactly
// as before. Event counts are kept once, in the Stats and ShardStats
// snapshot structs that are also the HTTP healthz payload; their
// counters are scrape-time reads of those fields (ledgerCounter), which
// gives the same numbers a time dimension without a second set of books.

// ledgerCounter exposes one field of a stats struct guarded by mu as a
// counter read at scrape time. The fields only ever grow, which is the
// monotonicity CounterFunc asks its caller to guarantee.
func ledgerCounter(r *obs.Registry, mu *sync.Mutex, field *int, name, help string) {
	r.CounterFunc(name, help, func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return float64(*field)
	})
}

// managerMetrics holds the manager's latency histograms; its event
// counters live in Stats.
type managerMetrics struct {
	// jobSeconds observes wall-clock executor latency per executed job
	// (coalesced and cache-hit submissions never reach the executor).
	jobSeconds *obs.Histogram
	// stageSeconds breaks a job into its stages: golden, plan, execute and
	// assemble from the executor, via the obs.Tracer each worker threads
	// through the executor context, then encode and commit from the worker
	// itself.
	stageSeconds *obs.HistogramVec
}

// registerMetrics exposes Stats as the jobs_*_total counters and the live
// queued count as a gauge, and builds the latency histograms.
func (m *Manager) registerMetrics(r *obs.Registry) {
	ledgerCounter(r, &m.mu, &m.stats.Submitted, "jobs_submitted_total",
		"Campaign submissions accepted (including coalesced and cache hits).")
	ledgerCounter(r, &m.mu, &m.stats.Coalesced, "jobs_coalesced_total",
		"Submissions that joined an in-flight job with the same content key.")
	ledgerCounter(r, &m.mu, &m.stats.CacheHits, "jobs_cache_hits_total",
		"Submissions answered from the completed result cache or the on-disk store.")
	ledgerCounter(r, &m.mu, &m.stats.Executed, "jobs_executed_total",
		"Campaigns that actually ran the engine.")
	r.GaugeFunc("jobs_queue_depth",
		"Jobs queued but not yet running.", func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			return float64(m.queued)
		})
	m.met = managerMetrics{
		jobSeconds: r.Histogram("jobs_job_duration_seconds",
			"Executor wall-clock latency per executed job.", obs.DurationBuckets),
		stageSeconds: r.HistogramVec("jobs_campaign_stage_seconds",
			"Per-stage campaign execution latency.", obs.DurationBuckets, "stage"),
	}
}

// registerMetrics exposes ShardStats as the shards_*_total counters plus
// the in-flight lease gauge, which reads len(p.owner) at scrape time.
func (p *ShardPool) registerMetrics(r *obs.Registry) {
	ledgerCounter(r, &p.mu, &p.stats.Campaigns, "shards_campaigns_total",
		"Sharded campaigns executed.")
	ledgerCounter(r, &p.mu, &p.stats.Leased, "shards_leased_total",
		"Shard leases handed out (including re-leases of requeued shards).")
	ledgerCounter(r, &p.mu, &p.stats.Completed, "shards_completed_total",
		"Shard results merged into their campaign.")
	ledgerCounter(r, &p.mu, &p.stats.Requeued, "shards_requeued_total",
		"Shards put back in the queue after a worker failure or lease expiry.")
	ledgerCounter(r, &p.mu, &p.stats.Reclaimed, "shards_reclaimed_total",
		"Shard leases reclaimed after their TTL expired (silent worker).")
	ledgerCounter(r, &p.mu, &p.stats.Poisoned, "shards_poisoned_total",
		"Campaigns failed by a shard exhausting its failure or reclaim bound.")
	ledgerCounter(r, &p.mu, &p.stats.EarlyStopped, "shards_early_stopped_total",
		"Sharded campaigns halted by the adaptive epsilon rule.")
	r.GaugeFunc("shards_inflight",
		"Shard leases currently held by workers.", func() float64 {
			p.mu.Lock()
			defer p.mu.Unlock()
			return float64(len(p.owner))
		})
}
