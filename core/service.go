package core

import (
	"context"

	"repro/internal/jobs"
)

// Async campaign job API. JobService wraps the campaign job scheduler of
// internal/jobs — the same engine cmd/faultserverd serves over HTTP — so
// embedders get an identical surface: submissions are deduplicated
// through a content-addressed result cache (a resubmitted spec coalesces
// onto the in-flight job or returns the cached outcome without running
// the engine), campaigns execute on a bounded worker pool, cancellation
// takes effect within one experiment granule, and watchers stream
// incremental progress with progressive Pf and Wilson confidence
// intervals.
type (
	// CampaignRequest describes one campaign to the job service; its
	// canonical hash is the job's content address.
	CampaignRequest = jobs.Request
	// CampaignJob is a job status snapshot.
	CampaignJob = jobs.Status
	// CampaignProgress is one incremental progress snapshot.
	CampaignProgress = jobs.Progress
	// CampaignOutcome is the deterministic result encoding shared with
	// the HTTP API and `faultcampaign -json`.
	CampaignOutcome = jobs.Outcome
	// JobServiceOptions sizes the scheduler. Setting Shards > 1 executes
	// every campaign through a shard pool: deterministic experiment-range
	// shards drained by in-process workers and by remote workers attached
	// over the HTTP shard surface. Sharding never changes result bytes.
	JobServiceOptions = jobs.ManagerOptions
	// JobState is a job's lifecycle phase.
	JobState = jobs.State
	// ShardRange is one contiguous experiment range of a sharded campaign.
	ShardRange = jobs.ShardRange
	// ShardStats counts what a shard pool has done.
	ShardStats = jobs.ShardStats
	// RecoveryInfo summarizes what a persistent job service found in its
	// data directory on open: stored results, resumed in-flight jobs,
	// pre-folded completed shards, and whether a torn journal tail was
	// truncated.
	RecoveryInfo = jobs.RecoveryInfo
)

// JobService is an in-process campaign job scheduler.
type JobService struct {
	m *jobs.Manager
}

// NewJobService starts an in-memory job service with its worker pool
// running. Close it when done. For a durable service (results and job
// state surviving restarts) set JobServiceOptions.DataDir and use
// OpenJobService — this constructor ignores the field because it cannot
// report the I/O errors durability can hit.
func NewJobService(opts JobServiceOptions) *JobService {
	return &JobService{m: jobs.NewManager(opts)}
}

// OpenJobService starts a job service backed by opts.DataDir: completed
// campaign outcomes are committed to an on-disk content-addressed
// result store (so resubmitted requests cache-hit across process
// lifetimes) and job/shard lifecycle events to a write-ahead journal
// (so in-flight campaigns resume from their last completed shard after
// a crash). With an empty DataDir it is NewJobService with an empty
// RecoveryInfo.
func OpenJobService(opts JobServiceOptions) (*JobService, RecoveryInfo, error) {
	m, info, err := jobs.OpenManager(opts)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	return &JobService{m: m}, info, nil
}

// SubmitCampaign submits a campaign asynchronously. A request matching an
// in-flight job coalesces onto it and one matching a completed outcome is
// answered from the result cache; fresh reports whether a new job was
// created (and hence the engine will run).
func (s *JobService) SubmitCampaign(req CampaignRequest) (st CampaignJob, fresh bool, err error) {
	return s.m.Submit(req)
}

// JobStatus returns a job's current status, including its result once
// done.
func (s *JobService) JobStatus(id string) (CampaignJob, error) { return s.m.Get(id) }

// Jobs lists every job in submission order.
func (s *JobService) Jobs() []CampaignJob { return s.m.List() }

// WatchProgress subscribes to a job's progress snapshots. The channel
// closes after the terminal snapshot; call unsub to detach early.
func (s *JobService) WatchProgress(id string) (ch <-chan CampaignProgress, unsub func(), err error) {
	return s.m.Watch(id)
}

// CancelJob cancels a queued or running job and returns its status as of
// the cancellation; the engine stops within one experiment granule.
func (s *JobService) CancelJob(id string) (CampaignJob, error) { return s.m.Cancel(id) }

// WaitJob blocks until the job is terminal (or ctx expires) and returns
// its final status.
func (s *JobService) WaitJob(ctx context.Context, id string) (CampaignJob, error) {
	return s.m.Wait(ctx, id)
}

// Close cancels in-flight jobs and stops the worker pool.
func (s *JobService) Close() { s.m.Close() }

// ExecuteCampaign runs one campaign request synchronously on the shared
// memoized runner cache and returns its canonical outcome — the
// synchronous twin of SubmitCampaign and the exact path behind
// `faultcampaign -json`. A request with a nonzero Epsilon stops
// adaptively once the Wilson 95% half-width around its progressive Pf
// reaches it.
func ExecuteCampaign(ctx context.Context, req CampaignRequest, workers int) (*CampaignOutcome, error) {
	return jobs.Execute(ctx, req, workers, nil)
}

// RunCampaign is ExecuteCampaign for a program of the caller's own — one
// assembled from source, say — rather than a bundled workload: one RTL
// runner is built for p alone, and the campaign runs on the same driver,
// so a bundled workload's program gives ExecuteCampaign's outcome byte for
// byte. req.Workload only labels p; a request that sets Iterations,
// Dataset or an Engine other than rtl is rejected.
func RunCampaign(ctx context.Context, p *Program, req CampaignRequest, workers int) (*CampaignOutcome, error) {
	return jobs.ExecuteProgram(ctx, p, req, workers)
}

// ExecuteShardedCampaign runs one campaign split into `shards` (at least
// 1) deterministic experiment-range shards on in-process workers (0 =
// GOMAXPROCS) — the single-binary multi-worker mode. With early stopping
// off the outcome is byte-identical to ExecuteCampaign for the same
// request: sharding is scheduling, not content.
func ExecuteShardedCampaign(ctx context.Context, req CampaignRequest, shards, workers int) (*CampaignOutcome, error) {
	return jobs.ExecuteSharded(ctx, req, shards, workers, nil)
}

// PlanCampaignShards splits n experiments into at most k contiguous,
// near-equal ranges — the deterministic shard plan coordinators use.
func PlanCampaignShards(n, k int) []ShardRange {
	return jobs.PlanShards(n, k)
}
