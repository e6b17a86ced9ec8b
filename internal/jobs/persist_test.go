package jobs_test

import (
	"bytes"
	"context"
	"encoding/json"
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
// which is exactly what cmd/smoke crash demonstrates process-for-real.

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

// shardOutputRecord materializes the durable record of one completed
// shard, exactly as a coordinator journals it after folding.
func shardOutputRecord(t *testing.T, req jobs.Request, start, end int) store.Record {
	t.Helper()
	out, err := jobs.ExecuteShard(context.Background(), req, start, end, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	key, err := req.Key()
	if err != nil {
		t.Fatal(err)
	}
	return store.Record{Type: "shard_completed", Key: key, Data: data}
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

// TestReplayRejectsMalformedShardRecord: a shard_completed record whose
// tallies do not cover its range (truncated Data that still parses) is
// discarded rather than folded as partial truth.
func TestReplayRejectsMalformedShardRecord(t *testing.T) {
	dir := t.TempDir()
	key, err := small.Key()
	if err != nil {
		t.Fatal(err)
	}
	journalRecords(t, dir,
		submittedRecord(t, small),
		store.Record{Type: "shard_completed", Key: key,
			Data: json.RawMessage(`{"golden_cycles":1,"indices":[0,1],"experiments":[]}`)},
	)

	m, info, err := jobs.OpenManager(jobs.ManagerOptions{Concurrency: 1, Shards: 2, DataDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if info.RecoveredShards != 0 {
		t.Fatalf("recovery %+v: malformed shard record was trusted", info)
	}
	got := waitDone(t, m, m.List()[0].ID)
	want, err := jobs.Execute(context.Background(), small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeOutcome(t, got.Result), encodeOutcome(t, want)) {
		t.Fatal("recovered run diverged from a direct Execute")
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
