package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/store"
)

// The recovery tests below simulate crashes the honest way: they write
// the same journal records a dying coordinator would have left behind
// (the record vocabulary is part of the on-disk format, pinned here on
// purpose) and then open a manager over the debris. Nothing reaches
// into unexported state — if these pass, a real SIGKILL recovers too,
// which is exactly what cmd/faultserverd's TestCrashRecovery demonstrates
// process-for-real.

func encodeOutcome(t *testing.T, o *jobs.Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := jobs.EncodeOutcome(&buf, o); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func waitDone(t *testing.T, m *jobs.Manager, id string) jobs.Status {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	st, err := m.Wait(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if st.State != jobs.StateDone {
		t.Fatalf("job ended %q (%s)", st.State, st.Error)
	}
	full, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	return full
}

// journalRecords writes a hand-crafted journal into dir — the debris of
// a simulated crash — using the same framing the live service uses.
func journalRecords(t *testing.T, dir string, recs ...store.Record) {
	t.Helper()
	j, _, err := store.OpenJournal(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j.AppendSync(r.Type, r.Key, json.RawMessage(r.Data)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func submittedRecord(t *testing.T, req jobs.Request) store.Record {
	t.Helper()
	n, err := req.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(n)
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return store.Record{Type: "job_submitted", Key: key, Data: data}
}

// TestStoreBackedCacheSurvivesRestart is the headline durability
// contract: a campaign executed before a restart is served from the
// on-disk result store after it — same bytes, zero engine runs.
func TestStoreBackedCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	opts := jobs.ManagerOptions{Concurrency: 1, DataDir: dir}

	m1, info, err := jobs.OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	if info != (jobs.RecoveryInfo{}) {
		t.Fatalf("fresh data dir reported recovery %+v", info)
	}
	st, fresh, err := m1.Submit(small)
	if err != nil || !fresh {
		t.Fatalf("Submit = fresh %v, err %v; want a fresh job", fresh, err)
	}
	first := encodeOutcome(t, waitDone(t, m1, st.ID).Result)
	m1.Close()

	m2, info, err := jobs.OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if info.StoredResults != 1 || info.ResumedJobs != 0 {
		t.Fatalf("recovery %+v: want 1 stored result, 0 resumed jobs", info)
	}
	st2, fresh2, err := m2.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	if fresh2 {
		t.Fatal("resubmission after restart executed instead of hitting the store")
	}
	if st2.State != jobs.StateDone {
		t.Fatalf("stored-result submission is %q, want done immediately", st2.State)
	}
	stats := m2.ManagerStats()
	if stats.Executed != 0 || stats.CacheHits != 1 {
		t.Fatalf("stats %+v: want 0 executed, 1 cache hit", stats)
	}
	got, err := m2.Get(st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOutcome(t, got.Result), first) {
		t.Fatal("stored outcome bytes differ from the pre-restart outcome")
	}
	// The result endpoint's bytes are the stored ones, not a re-encoding.
	if served, state, err := m2.Result(st2.ID); err != nil || state != jobs.StateDone || !bytes.Equal(served, first) {
		t.Fatalf("Result after restart: %d bytes, state %q, err %v; want the %d stored bytes", len(served), state, err, len(first))
	}
}

// TestReplayResumesInFlightJob: a journal holding a submission with no
// terminal record is a campaign the dead process never finished; the
// next boot must run it to completion unprompted.
func TestReplayResumesInFlightJob(t *testing.T) {
	dir := t.TempDir()
	journalRecords(t, dir, submittedRecord(t, small))

	m, info, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info.ResumedJobs != 1 || info.StoredResults != 0 {
		t.Fatalf("recovery %+v: want 1 resumed job", info)
	}
	list := m.List()
	if len(list) != 1 {
		t.Fatalf("recovered manager lists %d jobs, want 1", len(list))
	}
	got := waitDone(t, m, list[0].ID)

	want, err := jobs.Execute(context.Background(), small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOutcome(t, got.Result), encodeOutcome(t, want)) {
		t.Fatal("recovered run diverged from a direct Execute of the same request")
	}

	// A client resubmitting after the crash coalesces or cache-hits —
	// never a second execution.
	if _, fresh, err := m.Submit(small); err != nil || fresh {
		t.Fatalf("resubmit = fresh %v, err %v; want coalesced/cached", fresh, err)
	}
	if ex := m.ManagerStats().Executed; ex != 1 {
		t.Fatalf("executed %d campaigns, want exactly 1", ex)
	}
}

// shardRecord is a shard_completed record's data as it lies on the disk:
// the golden-run metadata, the complete shard's range and, column by
// column in index order, what its experiments found — the hybrid columns
// only when an experiment sets them. Node, model, unit and instant are the
// expansion's and are not journaled.
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

// resultsOf runs experiments [start,end) of a campaign and returns its
// shard_completed data, as a coordinator journals it before the fold.
func resultsOf(t *testing.T, req jobs.Request, start, end int) shardRecord {
	t.Helper()
	out, err := jobs.ExecuteShard(context.Background(), req, start, end, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	rec := shardRecord{GoldenCycles: out.GoldenCycles, Checkpointed: out.Checkpointed, Start: start, End: end}
	hybrid := false
	for _, e := range out.Experiments {
		rec.Outcomes = append(rec.Outcomes, e.Outcome)
		rec.Latencies = append(rec.Latencies, e.Latency)
		rec.Cycles = append(rec.Cycles, e.Cycles)
		rec.Engines = append(rec.Engines, e.Engine)
		rec.Predicted = append(rec.Predicted, e.Predicted)
		rec.Audited = append(rec.Audited, e.Audited)
		hybrid = hybrid || e.Engine != "" || e.Predicted != "" || e.Audited
	}
	if !hybrid {
		rec.Engines, rec.Predicted, rec.Audited = nil, nil, nil
	}
	return rec
}

// keyedRecord is a journal record of typ about req's campaign.
func keyedRecord(t *testing.T, req jobs.Request, typ string, data any) store.Record {
	t.Helper()
	b, err := json.Marshal(data)
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return store.Record{Type: typ, Key: key, Data: b}
}

// shardOutputRecord materializes the durable record of one completed
// shard, exactly as a coordinator journals it.
func shardOutputRecord(t *testing.T, req jobs.Request, start, end int) store.Record {
	t.Helper()
	return keyedRecord(t, req, "shard_completed", resultsOf(t, req, start, end))
}

// resumeAndCompare opens a manager over dir at the given shard count, waits
// for the one campaign it resumes, holds the outcome to a direct Execute of
// req, and returns what recovery found and how many shards the pool planned.
func resumeAndCompare(t *testing.T, dir string, req jobs.Request, shards int) (jobs.RecoveryInfo, int) {
	t.Helper()
	m, info, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, Shards: shards, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info.ResumedJobs != 1 {
		t.Fatalf("recovery %+v: want 1 resumed job", info)
	}
	got := waitDone(t, m, m.List()[0].ID)
	want, err := jobs.Execute(context.Background(), req, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOutcome(t, got.Result), encodeOutcome(t, want)) {
		t.Fatal("recovered run diverged from a direct Execute")
	}
	return info, m.ShardPool().Stats().Planned
}

// TestReplayResumesFromShardRecords: shards journaled as results only come
// back as the experiments that ran. A transient campaign's instants are
// rebuilt from the expansion, a hybrid one's engine, prediction and audit
// mark from the record, and either resumed campaign is byte-identical to a
// direct Execute while running only the shards the journal lacks.
func TestReplayResumesFromShardRecords(t *testing.T) {
	for _, tc := range []struct {
		name string
		req  jobs.Request
	}{{"transient", transientSpec()}, {"hybrid", hybridSmall}} {
		t.Run(tc.name, func(t *testing.T) {
			full, err := jobs.Execute(context.Background(), tc.req, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan := jobs.PlanShards(full.Injections, 4)
			first, third := resultsOf(t, tc.req, plan[0].Start, plan[0].End), resultsOf(t, tc.req, plan[2].Start, plan[2].End)
			if tc.req.Engine == "hybrid" && (first.Engines == nil || third.Engines == nil) {
				t.Fatal("hybrid shard records carry no engine column")
			}
			dir := t.TempDir()
			journalRecords(t, dir, submittedRecord(t, tc.req),
				keyedRecord(t, tc.req, "shard_completed", first), keyedRecord(t, tc.req, "shard_completed", third))
			info, planned := resumeAndCompare(t, dir, tc.req, 4)
			if info.RecoveredShards != 2 || planned != 2 {
				t.Fatalf("recovery %+v, %d shards planned: want 2 recovered and the other 2 run", info, planned)
			}
		})
	}
}

// TestReplayRejectsEarlierRecordFormat: a shard_completed record as
// earlier releases wrote it — indices and whole experiment objects — has no
// reader. Replay drops it and its shard re-runs to the same bytes.
func TestReplayRejectsEarlierRecordFormat(t *testing.T) {
	out, err := jobs.ExecuteShard(context.Background(), small, 0, 2, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	journalRecords(t, dir, submittedRecord(t, small), keyedRecord(t, small, "shard_completed", out))
	info, planned := resumeAndCompare(t, dir, small, 2)
	if info.RecoveredShards != 0 || planned != 2 {
		t.Fatalf("recovery %+v, %d shards planned: want the old record dropped and both shards run", info, planned)
	}
}

// TestReplayDedupsDuplicateShardCompletions: a crash between a shard
// requeue and its completion can journal the same shard twice. Replay
// must fold it once — the per-experiment have[] guard — and the resumed
// campaign must only execute the genuinely missing ranges.
func TestReplayDedupsDuplicateShardCompletions(t *testing.T) {
	dir := t.TempDir()
	done := shardOutputRecord(t, small, 0, 1)
	journalRecords(t, dir, submittedRecord(t, small), done, done)

	// small expands to 4 experiments; Shards:4 plans one per shard.
	m, info, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, Shards: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info.ResumedJobs != 1 {
		t.Fatalf("recovery %+v: want 1 resumed job", info)
	}
	if info.RecoveredShards == 0 {
		t.Fatalf("recovery %+v: completed shard not recovered", info)
	}
	list := m.List()
	got := waitDone(t, m, list[0].ID)

	want, err := jobs.Execute(context.Background(), small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOutcome(t, got.Result), encodeOutcome(t, want)) {
		t.Fatal("resumed sharded run diverged from a direct Execute")
	}
	// Experiment 0 was recovered from the journal: the pool must only
	// have planned the three uncovered shards.
	if st := m.ShardPool().Stats(); st.Planned != 3 || st.Completed != 3 {
		t.Fatalf("shard stats %+v: want 3 planned / 3 completed (1 of 4 recovered)", st)
	}
}

// TestReplayIgnoresLeaseWithoutCompletion: a lease breadcrumb with no
// completion record is work the crash destroyed. The shard must stay
// pending and re-execute; nothing may be trusted from the lease alone.
func TestReplayIgnoresLeaseWithoutCompletion(t *testing.T) {
	dir := t.TempDir()
	key, err := small.Key()
	if err != nil {
		t.Fatal(err)
	}
	journalRecords(t, dir,
		submittedRecord(t, small),
		store.Record{Type: "shard_leased", Key: key,
			Data: json.RawMessage(`{"lease":"gone-with-the-crash","worker":"w1","start":0,"end":2}`)},
	)

	m, info, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info.ResumedJobs != 1 || info.RecoveredShards != 0 {
		t.Fatalf("recovery %+v: want 1 resumed job, 0 recovered shards", info)
	}
	got := waitDone(t, m, m.List()[0].ID)

	want, err := jobs.Execute(context.Background(), small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOutcome(t, got.Result), encodeOutcome(t, want)) {
		t.Fatal("recovered run diverged from a direct Execute")
	}
	if st := m.ShardPool().Stats(); st.Planned != 2 {
		t.Fatalf("shard stats %+v: leased-but-incomplete shard should replan fully (want 2 planned)", st)
	}
}

// TestReplayRejectsMalformedShardRecord: a shard_completed record that
// checksums but is not a complete shard inside its campaign is discarded
// rather than folded as partial truth. Replay rejects a result count other
// than the range's length itself; a range past the campaign's end only the
// expansion reveals, so that record is dropped when the campaign is
// planned. Either way every shard runs, and the bytes are a direct
// Execute's. small expands to 4 experiments.
func TestReplayRejectsMalformedShardRecord(t *testing.T) {
	short := resultsOf(t, small, 0, 2)
	short.Outcomes, short.Latencies, short.Cycles = short.Outcomes[:1], short.Latencies[:1], short.Cycles[:1]
	past := resultsOf(t, small, 2, 4)
	past.Start, past.End = 3, 5
	past.Outcomes[0] = "hang" // folded at index 3, it would show
	for _, tc := range []struct {
		name      string
		rec       shardRecord
		recovered int
	}{{"count", short, 0}, {"range", past, 1}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			journalRecords(t, dir, submittedRecord(t, small), keyedRecord(t, small, "shard_completed", tc.rec))
			info, planned := resumeAndCompare(t, dir, small, 2)
			if info.RecoveredShards != tc.recovered || planned != 2 {
				t.Fatalf("recovery %+v, %d shards planned: want %d replayed and both shards run", info, planned, tc.recovered)
			}
		})
	}
}

// TestJournalBytesPerCampaign: a campaign of the benchmark's service shape
// — rspeed at 2 iterations, 256 IU nodes × sa0/sa1/open injected mid-run,
// 4 shards — journals at most 25,000 bytes on a fresh data directory. Its
// four shard records carry results, not a second copy of the 768
// experiments the outcome already spells (that copy made the journal
// ~92,600 bytes).
func TestJournalBytesPerCampaign(t *testing.T) {
	dir := t.TempDir()
	m, _, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, Shards: 4, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	req := jobs.Request{Workload: "rspeed", Iterations: 2, Target: "iu", Models: []string{"sa0", "sa1", "open"},
		Nodes: 256, Seed: 1, InjectAtFraction: 0.5}
	st, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := waitDone(t, m, st.ID); got.Result.Injections != 768 {
		t.Fatalf("campaign ran %d experiments, want 768", got.Result.Injections)
	}
	m.Close()
	journal, err := os.ReadFile(filepath.Join(dir, "journal.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if records := bytes.Count(journal, []byte("\n")); len(journal) > 25000 || records != 11 {
		t.Errorf("one campaign journaled %d bytes in %d records, want at most 25,000 in 11", len(journal), records)
	}
}

// TestReplayDropsFinishedJobWithStoredResult: a crash after the store
// commit but before the journal's terminal record leaves a "live" job
// whose result is already durable. Recovery must serve it, not rerun it.
func TestReplayDropsFinishedJobWithStoredResult(t *testing.T) {
	dir := t.TempDir()
	opts := jobs.ManagerOptions{Concurrency: 1, DataDir: dir}

	// Run once to populate the store...
	m1, _, err := jobs.OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := m1.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, m1, st.ID)
	m1.Close()

	// ...then forge the crash window: a journal claiming the job never
	// finished, next to a store that has its outcome.
	journalRecords(t, dir, submittedRecord(t, small))

	m2, info, err := jobs.OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	if info.StoredResults != 1 || info.ResumedJobs != 0 {
		t.Fatalf("recovery %+v: want the stored result to retire the in-flight record", info)
	}
	if _, fresh, err := m2.Submit(small); err != nil || fresh {
		t.Fatalf("resubmit = fresh %v, err %v; want a store hit", fresh, err)
	}
	if ex := m2.ManagerStats().Executed; ex != 0 {
		t.Fatalf("executed %d campaigns, want 0 (result was already durable)", ex)
	}
}
