package jobs

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/store"
)

// Durability: when a manager is opened with a data directory, every
// completed campaign outcome is appended to an on-disk content-addressed
// outcome log and every job/shard lifecycle event that recovery or the
// lease timeline reads to a checksummed write-ahead journal. A crashed
// coordinator reopens both on boot: completed campaigns are served from
// the store without touching the engine (dedup across process
// lifetimes), and in-flight jobs are resubmitted with their journaled
// completed shards pre-folded, so a recovered campaign resumes from its
// last durable shard instead of restarting from zero. Because the shard plan and experiment expansion
// are pure functions of the normalized request, the recovered run's
// merged outcome is byte-identical to an uninterrupted one.
//
// Journal record types, and what each asks of the disk (store.Journal's
// durability classes; every record reaches the kernel before its append
// returns, so a killed process loses none of them — the class is about
// power loss). job_submitted is a barrier: the submitter is answered only
// once it is on the disk, but the job is queued as soon as the record is
// written and may run, and even commit its outcome, while the fsync is in
// flight — the client has not been told the job exists, the job's own
// records follow job_submitted in the file, and a stored outcome is
// content-addressed. shard_completed and the three terminal records
// are synced soon after, without their writer waiting: losing one costs a
// shard re-run, or a replay that finds the outcome already in the store.
// The plan and the leases are breadcrumbs — cheap, never synced on their
// own account, and ignored by replay — that keep a post-mortem journal's
// lease timeline. A lease's in-flight tally lives in memory only.
const (
	recJobSubmitted   = "job_submitted"   // Data: normalized Request
	recJobDone        = "job_done"        // outcome committed to the store
	recJobFailed      = "job_failed"      // Data: {"error": ...}
	recJobCancelled   = "job_cancelled"   //
	recShardPlanned   = "shard_planned"   // Data: {"total": N, "shards": K}
	recShardLeased    = "shard_leased"    // Data: lease id + range
	recShardCompleted = "shard_completed" // Data: shardRecord
)

// shardRecord is a shard_completed record's data: the results of one
// complete shard — exactly its leased range, [Start,End) — and only what
// the campaign's expansion cannot give back. The expansion (experimentsFor,
// a pure function of the request) names every experiment's node, model,
// unit and transient instant by its index, so the record carries the
// golden-run metadata and, column by column in index order, what the engine
// found: outcome, latency and cycles, and the hybrid fields when any
// experiment of the shard sets them (a column is then as long as the
// others, its unset entries zero). Replay checks its shape alone; the shard
// pool lays it over the expansion when it plans the resumed campaign
// (rebuild). A record of any other shape is dropped and its shard re-runs.
type shardRecord struct {
	GoldenCycles uint64   `json:"golden_cycles"`
	Checkpointed bool     `json:"checkpointed"`
	Start        int      `json:"start"`
	End          int      `json:"end"`
	Outcomes     []string `json:"outcomes"`
	Latencies    []int64  `json:"latencies"`
	Cycles       []uint64 `json:"cycles"`
	Engines      []string `json:"engines,omitempty"`
	Predicted    []string `json:"predicted,omitempty"`
	Audited      []bool   `json:"audited,omitempty"`
}

// set makes r the record of a complete shard out over rng, over the
// storage of r's columns (the coordinator keeps records for reuse:
// shardRecords). The columns are copies: r keeps nothing of out's arrays.
func (r *shardRecord) set(rng ShardRange, out *ShardOutput) *shardRecord {
	n := len(out.Experiments)
	r.GoldenCycles, r.Checkpointed, r.Start, r.End = out.GoldenCycles, out.Checkpointed, rng.Start, rng.End
	r.Outcomes, r.Latencies, r.Cycles = slices.Grow(r.Outcomes[:0], n), slices.Grow(r.Latencies[:0], n), slices.Grow(r.Cycles[:0], n)
	r.Engines, r.Predicted, r.Audited = r.Engines[:0], r.Predicted[:0], r.Audited[:0]
	var hybrid bool
	for i := range out.Experiments {
		e := &out.Experiments[i]
		r.Outcomes = append(r.Outcomes, e.Outcome)
		r.Latencies = append(r.Latencies, e.Latency)
		r.Cycles = append(r.Cycles, e.Cycles)
		hybrid = hybrid || e.Engine != "" || e.Predicted != "" || e.Audited
	}
	if hybrid {
		r.Engines, r.Predicted, r.Audited = slices.Grow(r.Engines, n), slices.Grow(r.Predicted, n), slices.Grow(r.Audited, n)
		for i := range out.Experiments {
			e := &out.Experiments[i]
			r.Engines = append(r.Engines, e.Engine)
			r.Predicted = append(r.Predicted, e.Predicted)
			r.Audited = append(r.Audited, e.Audited)
		}
	}
	return r
}

// decodeShardRecord reads a shard_completed record's data and reports
// whether it is a complete shard's results: a non-empty range and every
// column exactly as long, the hybrid ones absent or as long. Whether the
// range lies inside the campaign only the expansion knows (rebuild).
func decodeShardRecord(data []byte) (shardRecord, bool) {
	var r shardRecord
	if err := json.Unmarshal(data, &r); err != nil {
		return r, false
	}
	n := r.End - r.Start
	if r.Start < 0 || n <= 0 || len(r.Outcomes) != n || len(r.Latencies) != n || len(r.Cycles) != n {
		return r, false
	}
	for _, col := range []int{len(r.Engines), len(r.Predicted), len(r.Audited)} {
		if col != 0 && col != n {
			return r, false
		}
	}
	return r, true
}

// rebuild lays a decoded record over the campaign's expansion exps: the
// experiments of its range, each named by the expansion — node, model,
// unit and a transient's instant, as runRange names them — and classified
// by the record. It reports false, and folds nothing, when the range does
// not lie inside the campaign.
func (r *shardRecord) rebuild(exps []fault.Experiment) (ShardOutput, bool) {
	if r.End > len(exps) {
		return ShardOutput{}, false
	}
	n := r.End - r.Start
	out := ShardOutput{
		GoldenCycles: r.GoldenCycles,
		Checkpointed: r.Checkpointed,
		Indices:      make([]int, n),
		Experiments:  make([]ExperimentOutcome, n),
	}
	instants := make([]uint64, n) // the transients' instants, which their outcomes point into
	for k := range out.Experiments {
		i := r.Start + k
		e, eo := &exps[i], &out.Experiments[k]
		out.Indices[k] = i
		eo.Node, eo.Model, eo.Unit = e.Node.String(), e.Model.String(), e.Node.Unit.String()
		if e.Model.Transient() {
			instants[k] = e.AtCycle
			eo.AtCycle = &instants[k]
		}
		eo.Outcome, eo.Latency, eo.Cycles = r.Outcomes[k], r.Latencies[k], r.Cycles[k]
		if len(r.Engines) > 0 {
			eo.Engine = r.Engines[k]
		}
		if len(r.Predicted) > 0 {
			eo.Predicted = r.Predicted[k]
		}
		if len(r.Audited) > 0 {
			eo.Audited = r.Audited[k]
		}
	}
	return out, true
}

// journalName is the WAL file inside a manager's data directory; the
// result store lives in the resultsDir subdirectory beside it.
const (
	journalName = "journal.ndjson"
	resultsDir  = "results"
)

// recoveredJob is one in-flight campaign reconstructed from the journal:
// its normalized request and the record of every shard that was durably
// completed before the crash.
type recoveredJob struct {
	Key       string
	Request   Request
	Completed []shardRecord
}

// RecoveryInfo summarizes what OpenManager found in the data directory.
type RecoveryInfo struct {
	// StoredResults is the number of verified outcomes in the result
	// store (completed campaigns that will cache-hit without executing).
	StoredResults int
	// ResumedJobs is the number of in-flight jobs resubmitted from the
	// journal.
	ResumedJobs int
	// RecoveredShards counts the durable completed shard records handed
	// to the resumed jobs. One whose range turns out to lie outside its
	// campaign is dropped when the campaign is planned, and its shard
	// re-runs.
	RecoveredShards int
	// TornTail reports that the journal ended in a torn or corrupt
	// record, which recovery truncated — expected after a crash, worth a
	// log line.
	TornTail bool
}

// persistence binds a manager to its store and journal. All methods are
// safe for concurrent use and degrade to logging on I/O errors: a full
// disk must never take down the in-memory service, only its durability.
type persistence struct {
	store   *store.Store
	journal *store.Journal
	log     *slog.Logger

	mu        sync.Mutex
	recovered map[string][]shardRecord // journaled completed shards, by campaign key

	// loading, when set, is called by loadOutcome on a store hit before
	// the decode: where a test holds a load.
	loading func(key string)
}

// openPersistence opens (or creates) the store and journal under dir and
// replays the journal into the set of in-flight jobs.
func openPersistence(dir string) (*persistence, []*recoveredJob, error) {
	st, err := store.Open(filepath.Join(dir, resultsDir))
	if err != nil {
		return nil, nil, fmt.Errorf("jobs: opening result store: %w", err)
	}
	j, recs, err := store.OpenJournal(filepath.Join(dir, journalName))
	if err != nil {
		st.Close()
		return nil, nil, fmt.Errorf("jobs: opening journal: %w", err)
	}
	p := &persistence{
		store: st, journal: j, recovered: map[string][]shardRecord{},
		log: slog.New(slog.DiscardHandler),
	}
	return p, replayJournal(recs), nil
}

// registerMetrics exposes the store and journal as scrape-time gauges.
// Everything reads a consistent snapshot under the component's own lock,
// so the numbers stay live without per-write counter plumbing.
func (p *persistence) registerMetrics(reg *obs.Registry) {
	reg.GaugeFunc("store_results",
		"Verified campaign outcomes in the on-disk result store.", func() float64 {
			return float64(p.store.Len())
		})
	reg.GaugeFunc("store_journal_size_bytes",
		"Bytes of valid records in the write-ahead journal.", func() float64 {
			return float64(p.journal.Stats().SizeBytes)
		})
	reg.GaugeFunc("store_journal_records",
		"Live records in the write-ahead journal.", func() float64 {
			return float64(p.journal.Stats().Records)
		})
	reg.CounterFunc("store_journal_fsyncs_total",
		"Fsync calls issued against the journal file.", func() float64 {
			return float64(p.journal.Stats().Fsyncs)
		})
	putSeconds := reg.Histogram("store_put_seconds",
		"Duration of each commit of an outcome to the result store (checksum, append, fsync).", obs.DurationBuckets)
	p.store.OnCommit(func(took time.Duration, _ error) { putSeconds.Observe(took.Seconds()) })
	fsyncSeconds := reg.Histogram("store_journal_fsync_seconds",
		"Duration of each fsync of the journal file.", obs.DurationBuckets)
	p.journal.OnFsync(func(took time.Duration, err error) {
		fsyncSeconds.Observe(took.Seconds())
		if err != nil {
			p.log.Error("journal fsync failed", "error", err)
		}
	})
	reg.GaugeFunc("store_journal_compaction_age_seconds",
		"Seconds since the journal was last compacted (or opened).", func() float64 {
			//lint:allow det scrape-time compaction-age gauge, observation only
			return time.Since(p.journal.Stats().LastCompaction).Seconds()
		})
}

// replayJournal folds the journal's records into the jobs that were
// still in flight when the process died, in submission order. Terminal
// records retire their job; duplicate submissions of a live key merge
// (keeping the completed shards already folded); completion records for
// untracked keys are dropped. Lease and plan records are breadcrumbs only.
func replayJournal(recs []store.Record) []*recoveredJob {
	byKey := map[string]*recoveredJob{}
	var order []*recoveredJob
	for _, rec := range recs {
		switch rec.Type {
		case recJobSubmitted:
			if byKey[rec.Key] != nil {
				continue // duplicate submission record; keep folded state
			}
			var req Request
			if err := json.Unmarshal(rec.Data, &req); err != nil {
				continue // unreadable request: nothing to resume
			}
			rj := &recoveredJob{Key: rec.Key, Request: req}
			byKey[rec.Key] = rj
			order = append(order, rj)
		case recJobDone, recJobFailed, recJobCancelled:
			if rj := byKey[rec.Key]; rj != nil {
				delete(byKey, rec.Key)
				for i, o := range order {
					if o == rj {
						order = append(order[:i], order[i+1:]...)
						break
					}
				}
			}
		case recShardCompleted:
			rj := byKey[rec.Key]
			if rj == nil {
				continue
			}
			sr, ok := decodeShardRecord(rec.Data)
			if !ok {
				continue // malformed despite checksum, or another format: the shard re-runs
			}
			rj.Completed = append(rj.Completed, sr)
		}
	}
	return order
}

// compact rewrites the journal down to the live jobs' recovery state:
// one submission record per in-flight job plus its completed shards.
// Everything else — terminal pairs, breadcrumbs, torn tails — has been
// folded and is dropped, bounding journal growth across restarts.
func (p *persistence) compact(live []*recoveredJob) error {
	var recs []store.Record
	for _, rj := range live {
		req, err := json.Marshal(rj.Request)
		if err != nil {
			return err
		}
		recs = append(recs, store.Record{Type: recJobSubmitted, Key: rj.Key, Data: req})
		for i := range rj.Completed {
			recs = append(recs, store.Record{Type: recShardCompleted, Key: rj.Key, Data: rj.Completed[i].AppendJSON(nil)})
		}
	}
	return p.journal.Rewrite(recs)
}

// journalSubmit writes a fresh submission's record and returns the wait for
// its fsync, which the submitter is answered only after: accepting a job the
// journal cannot remember would silently drop it on the next crash. Until
// then the job may run, since the record is already in the file ahead of
// anything the job journals.
func (p *persistence) journalSubmit(key string, req Request) (synced func() error, err error) {
	return p.journal.AppendBarrier(recJobSubmitted, key, req)
}

// journalJobEnd retires a job in the journal. Loss of this record is
// tolerable (the job replays as in-flight and its completed outcome
// cache-hits the store), so nobody waits for the disk and errors only log.
func (p *persistence) journalJobEnd(state State, key string, errMsg string) {
	typ := recJobCancelled
	switch state {
	case StateDone:
		typ = recJobDone
	case StateFailed:
		typ = recJobFailed
	}
	var data interface{}
	if errMsg != "" {
		data = struct {
			Error string `json:"error"`
		}{errMsg}
	}
	if err := p.journal.AppendSoon(typ, key, data); err != nil {
		p.log.Error("journal append failed", "record", typ, "key", shortKey(key), "error", err)
	}
}

// commitOutcome commits a completed campaign's canonical encoding to the
// store. Best-effort: on failure the outcome survives in memory for this
// process's lifetime, just not across a restart.
func (p *persistence) commitOutcome(key string, encoded []byte) {
	if err := p.store.Put(key, encoded); err != nil {
		p.log.Error("persisting outcome failed", "key", shortKey(key), "error", err)
	}
}

// loadOutcome fetches a stored campaign outcome: decoded, and as the
// canonical bytes it was stored as.
func (p *persistence) loadOutcome(key string) (*Outcome, []byte, bool) {
	b, ok := p.store.Get(key)
	if !ok {
		return nil, nil, false
	}
	if p.loading != nil {
		p.loading(key)
	}
	var out Outcome
	if err := json.Unmarshal(b, &out); err != nil {
		// Verified bytes that fail to decode mean a schema change, not
		// corruption; treat as a miss and re-execute.
		return nil, nil, false
	}
	return &out, b, true
}

// ShardEvent journals one shard lifecycle event. Completed shards are
// the currency of crash recovery and are synced soon after; the plan and
// leases are breadcrumbs and ride the next sync.
func (p *persistence) ShardEvent(typ, key string, data interface{}) {
	var err error
	if typ == recShardCompleted {
		err = p.journal.AppendSoon(typ, key, data)
	} else {
		err = p.journal.Append(typ, key, data)
	}
	if err != nil {
		p.log.Error("journal append failed", "record", typ, "key", shortKey(key), "error", err)
	}
}

// stashRecovered records a resumed job's journaled shard records for the
// shard pool that will re-plan it.
func (p *persistence) stashRecovered(key string, outs []shardRecord) {
	if len(outs) == 0 {
		return
	}
	p.mu.Lock()
	p.recovered[key] = outs
	p.mu.Unlock()
}

// TakeRecovered hands a campaign's journaled completed shard records to
// the shard pool planning it, exactly once.
func (p *persistence) TakeRecovered(key string) []shardRecord {
	p.mu.Lock()
	defer p.mu.Unlock()
	outs := p.recovered[key]
	delete(p.recovered, key)
	return outs
}

// Close flushes and closes the journal, and closes the store.
func (p *persistence) Close() {
	if err := p.journal.Close(); err != nil {
		p.log.Error("closing journal failed", "error", err)
	}
	if err := p.store.Close(); err != nil {
		p.log.Error("closing result store failed", "error", err)
	}
}

// OpenManager starts a job service backed by the data directory in
// opts.DataDir: the result store and write-ahead journal are opened (and
// integrity-checked) first, completed campaigns become persistent cache
// hits, and journaled in-flight jobs are resubmitted with their durable
// shards pre-folded. With an empty DataDir it is NewManager with an
// empty RecoveryInfo.
func OpenManager(opts ManagerOptions) (*Manager, RecoveryInfo, error) {
	if opts.DataDir == "" {
		return NewManager(opts), RecoveryInfo{}, nil
	}
	p, live, err := openPersistence(opts.DataDir)
	if err != nil {
		return nil, RecoveryInfo{}, err
	}
	info := RecoveryInfo{StoredResults: p.store.Len(), TornTail: p.journal.TornTail()}
	// A job whose outcome reached the store before the crash retired the
	// journal record is already done; drop it from the live set rather
	// than re-executing a campaign whose result is durable.
	kept := live[:0]
	for _, rj := range live {
		if _, ok := p.store.Get(rj.Key); ok {
			continue
		}
		kept = append(kept, rj)
	}
	live = kept
	if err := p.compact(live); err != nil {
		p.Close()
		return nil, RecoveryInfo{}, fmt.Errorf("jobs: compacting journal: %w", err)
	}
	m := newManager(opts, p)
	for _, rj := range live {
		if err := m.submitRecovered(rj); err != nil {
			// A request that no longer normalizes (e.g. a workload removed
			// between releases) cannot resume; log and drop it.
			m.log.Warn("dropping unrecoverable job", "key", shortKey(rj.Key), "error", err)
			continue
		}
		info.ResumedJobs++
		info.RecoveredShards += len(rj.Completed)
	}
	return m, info, nil
}
