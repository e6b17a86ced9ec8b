package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// storeBytes is the size of everything under a data directory's result
// store: the outcome log, and anything a store might leave beside it.
func storeBytes(t *testing.T, dataDir string) int64 {
	t.Helper()
	var n int64
	err := filepath.WalkDir(filepath.Join(dataDir, resultsDir), func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err == nil {
			n += fi.Size()
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// journaled reports whether the live journal file holds a record of typ.
// Appends are written through, so the file is as current as the journal.
func journaled(t *testing.T, dataDir, typ string) bool {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dataDir, journalName))
	if err != nil {
		t.Fatal(err)
	}
	return bytes.Contains(b, []byte(`"type":"`+typ+`"`))
}

// TestOutcomeEntryLifecycle follows a job's outcome into the store at every
// end a job can come to. A done job's outcome is committed — appended,
// fsynced, indexed, Commit returned — before the job reads done and before
// job_done is journaled (recovery takes that record to mean the result is
// in the store); a failed job, a cancelled one and one cut short by Close
// append nothing.
func TestOutcomeEntryLifecycle(t *testing.T) {
	dir := t.TempDir()
	started, release := make(chan struct{}), make(chan struct{})
	fail := errors.New("engine exploded")
	m, _, err := OpenManager(ManagerOptions{Concurrency: 1, DataDir: dir,
		Executor: func(ctx context.Context, req Request, _ int, _ Tap) (*Outcome, error) {
			if req.Seed == 2 {
				return nil, fail
			}
			started <- struct{}{}
			if req.Seed == 1 {
				<-release
				return &Outcome{Request: req, Injections: 1, Experiments: []ExperimentOutcome{{Node: "n"}}}, nil
			}
			<-ctx.Done()
			return nil, ctx.Err()
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	req := Request{Workload: "excerptA", Nodes: 4, Seed: 1}
	wait := func(id string) Status {
		t.Helper()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		st, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	// Done: hold Commit just before it returns and look around.
	inCommit, letGo := make(chan struct{}), make(chan struct{})
	m.persist.store.OnCommit(func(_ time.Duration, err error) {
		if err != nil {
			t.Errorf("Commit: %v", err)
		}
		close(inCommit)
		<-letGo
	})
	st, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if n := storeBytes(t, dir); n != 0 {
		t.Errorf("a running job has put %d bytes in the store", n)
	}
	close(release)
	<-inCommit
	if _, ok := m.persist.store.Get(st.Key); !ok {
		t.Error("the outcome is not in the store when Commit is about to return")
	}
	if journaled(t, dir, recJobDone) {
		t.Error("job_done was journaled before Commit returned")
	}
	if now, err := m.Get(st.ID); err != nil || now.State != StateRunning {
		t.Errorf("job reads %q (%v) before Commit returned, want running", now.State, err)
	}
	close(letGo)
	if final := wait(st.ID); final.State != StateDone {
		t.Fatalf("job ended %q (%s)", final.State, final.Error)
	}
	if !journaled(t, dir, recJobDone) || m.persist.store.Len() != 1 {
		t.Errorf("after a done job: job_done journaled %v, %d entries", journaled(t, dir, recJobDone), m.persist.store.Len())
	}
	m.persist.store.OnCommit(nil)
	size := storeBytes(t, dir)
	unchanged := func(after string) {
		t.Helper()
		if n := storeBytes(t, dir); n != size || m.persist.store.Len() != 1 {
			t.Errorf("after %s: %d entries, the store holds %d bytes, want %d", after, m.persist.store.Len(), n, size)
		}
	}

	// Failed.
	req.Seed = 2
	if st, _, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	if final := wait(st.ID); final.State != StateFailed {
		t.Fatalf("job ended %q, want failed", final.State)
	}
	unchanged("a failed job")

	// Cancelled while running.
	req.Seed = 3
	if st, _, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if final := wait(st.ID); final.State != StateCancelled {
		t.Fatalf("job ended %q, want cancelled", final.State)
	}
	unchanged("a cancelled job")

	// Still running when the manager closes.
	req.Seed = 4
	if _, _, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	<-started
	m.Close()
	unchanged("Close")
}

// parkedExecutor is an executor that reports each start on started and
// parks until its context is cancelled, or until release closes.
func parkedExecutor(started chan<- int64, release <-chan struct{}) func(context.Context, Request, int, Tap) (*Outcome, error) {
	return func(ctx context.Context, req Request, _ int, _ Tap) (*Outcome, error) {
		started <- req.Seed
		select {
		case <-release:
		case <-ctx.Done():
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return &Outcome{Request: req, Injections: 1, Experiments: []ExperimentOutcome{{Node: "n"}}}, nil
	}
}

// TestSubmitRunsWhileTheBarrierSyncs: a fresh durable submission's job is
// queued as its job_submitted record is written, and runs while the fsync
// Submit waits for is held; Submit returns only once that fsync is let go,
// and the manager's lock is free meanwhile.
func TestSubmitRunsWhileTheBarrierSyncs(t *testing.T) {
	dir := t.TempDir()
	started, release := make(chan int64, 1), make(chan struct{})
	m, _, err := OpenManager(ManagerOptions{Concurrency: 1, DataDir: dir, Executor: parkedExecutor(started, release)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inSync, letGo := make(chan struct{}), make(chan struct{})
	finishSync := sync.OnceFunc(func() { close(letGo) })
	defer finishSync() // before Close, which waits for a held sync
	var once sync.Once
	m.persist.journal.SetFsync(func(f *os.File) error {
		once.Do(func() { close(inSync) })
		<-letGo
		return f.Sync()
	})
	type submitted struct {
		st    Status
		fresh bool
		err   error
	}
	returned := make(chan submitted, 1)
	go func() {
		st, fresh, err := m.Submit(Request{Workload: "excerptA", Nodes: 4, Seed: 1})
		returned <- submitted{st, fresh, err}
	}()
	<-inSync
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("the job did not start while its submission's fsync was held")
	}
	if !journaled(t, dir, recJobSubmitted) {
		t.Error("the job runs with no job_submitted in the file")
	}
	if list := m.List(); len(list) != 1 || list[0].State != StateRunning {
		t.Fatalf("with the fsync held the manager lists %+v, want one running job", list)
	}
	select {
	case r := <-returned:
		t.Fatalf("Submit returned (%+v) before its fsync finished", r)
	case <-time.After(20 * time.Millisecond):
	}
	finishSync()
	r := <-returned
	if r.err != nil || !r.fresh {
		t.Fatalf("Submit after the fsync: fresh %v, err %v", r.fresh, r.err)
	}
	close(release)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := m.Wait(ctx, r.st.ID); err != nil || final.State != StateDone {
		t.Fatalf("job ended %q (%v)", final.State, err)
	}
}

// TestFailedBarrierCancelsTheJob: when the fsync of job_submitted fails,
// Submit returns the failure, the job it had admitted ends cancelled and
// journaled so, and its key is free: the next submission is fresh.
func TestFailedBarrierCancelsTheJob(t *testing.T) {
	dir := t.TempDir()
	started := make(chan int64, 2) // one send for each of the two jobs, never read
	m, _, err := OpenManager(ManagerOptions{Concurrency: 1, DataDir: dir, Executor: parkedExecutor(started, nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	fail := errors.New("disk on fire")
	m.persist.journal.SetFsync(func(*os.File) error { return fail })
	req := Request{Workload: "excerptA", Nodes: 4, Seed: 1}
	if _, _, err := m.Submit(req); !errors.Is(err, fail) {
		t.Fatalf("Submit over a failing fsync returned %v", err)
	}
	list := m.List()
	if len(list) != 1 {
		t.Fatalf("the manager lists %d jobs, want the one admitted", len(list))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := m.Wait(ctx, list[0].ID); err != nil || final.State != StateCancelled {
		t.Fatalf("the job of a failed submission ended %q (%v), want cancelled", final.State, err)
	}
	if !journaled(t, dir, recJobCancelled) {
		t.Error("the cancelled job is not journaled as such")
	}
	m.persist.journal.SetFsync((*os.File).Sync)
	st, fresh, err := m.Submit(req)
	if err != nil || !fresh || st.ID == list[0].ID {
		t.Fatalf("resubmission: job %s fresh %v err %v, want a fresh job beside %s", st.ID, fresh, err, list[0].ID)
	}
}

// TestStoreHitLoadsOffTheLock holds a submission inside its store-hit load
// and shows the manager going on: status reads and another key's
// submission proceed, and a duplicate submission that loads the same key
// meanwhile is admitted first. The held one then joins that job; its own
// decode is dropped, so both answers name one job.
func TestStoreHitLoadsOffTheLock(t *testing.T) {
	dir := t.TempDir()
	done := make(chan struct{})
	close(done)
	// The started channel takes one send for each of the two jobs that run
	// and is never read.
	opts := ManagerOptions{Concurrency: 1, DataDir: dir, Executor: parkedExecutor(make(chan int64, 2), done)}
	req := Request{Workload: "excerptA", Nodes: 4, Seed: 1}
	m, _, err := OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	st, _, err := m.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if final, err := m.Wait(ctx, st.ID); err != nil || final.State != StateDone {
		t.Fatalf("job ended %q (%v)", final.State, err)
	}
	m.Close()

	m, _, err = OpenManager(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	inLoad, letGo := make(chan struct{}), make(chan struct{})
	finishLoad := sync.OnceFunc(func() { close(letGo) })
	defer finishLoad() // before Close, which takes the lock a held load might hold
	var loads atomic.Int32
	m.persist.loading = func(string) {
		if loads.Add(1) == 1 { // hold the first load alone
			close(inLoad)
			<-letGo
		}
	}
	held := make(chan Status, 1)
	go func() {
		st, fresh, err := m.Submit(req)
		if err != nil || fresh {
			t.Errorf("held store hit: fresh %v, err %v", fresh, err)
		}
		held <- st
	}()
	<-inLoad
	// Beside the held load: another key's submission, a status read and a
	// duplicate of the held key, which loads and is admitted first.
	beside := make(chan Status, 1)
	go func() {
		defer close(beside)
		other := req
		other.Seed = 2
		st2, fresh, err := m.Submit(other)
		if err != nil || !fresh {
			t.Errorf("another key's submission beside a held load: fresh %v, err %v", fresh, err)
			return
		}
		if _, err := m.Get(st2.ID); err != nil {
			t.Error(err)
			return
		}
		dup, fresh, err := m.Submit(req)
		if err != nil || fresh || dup.State != StateDone {
			t.Errorf("duplicate beside a held load: %q, fresh %v, err %v", dup.State, fresh, err)
			return
		}
		beside <- dup
	}()
	var dup Status
	select {
	case dup = <-beside:
	case <-time.After(30 * time.Second):
		t.Fatal("submissions and status reads wait behind a held store-hit load")
	}
	finishLoad()
	if st := <-held; st.ID != dup.ID {
		t.Errorf("the held store hit answered job %s, the duplicate admitted %s", st.ID, dup.ID)
	}
	if s := m.ManagerStats(); s.CacheHits != 2 || s.Submitted != 3 || len(m.List()) != 2 {
		t.Errorf("stats %+v over %d jobs, want 2 cache hits of 3 submissions over 2 jobs", s, len(m.List()))
	}
}
