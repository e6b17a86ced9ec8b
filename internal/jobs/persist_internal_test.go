package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
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
