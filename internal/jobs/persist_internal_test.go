package jobs

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// resultTemps lists the unfinished entries under a data directory's result
// store.
func resultTemps(t *testing.T, dataDir string) []string {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dataDir, resultsDir))
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			out = append(out, e.Name())
		}
	}
	return out
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

// TestOutcomeEntryLifecycle follows the store entry of a job's outcome from
// Begin at job start to every end a job can come to. While the campaign
// runs the entry is a temp file; the outcome is committed — renamed into
// place, Commit returned — before the job reads done and before job_done is
// journaled (recovery takes that record to mean the result is in the
// store); and a failed job, a cancelled one and one cut short by Close
// leave no temp file behind.
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
	// begun waits for the running job's temp file: it is created on a
	// goroutine of its own.
	begun := func() {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); len(resultTemps(t, dir)) != 1; {
			if time.Now().After(deadline) {
				t.Fatalf("a running job's store entry: temps %v, want one", resultTemps(t, dir))
			}
			time.Sleep(time.Millisecond)
		}
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
	begun()
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
	if !journaled(t, dir, recJobDone) || len(resultTemps(t, dir)) != 0 || m.persist.store.Len() != 1 {
		t.Errorf("after a done job: job_done journaled %v, temps %v, %d entries", journaled(t, dir, recJobDone), resultTemps(t, dir), m.persist.store.Len())
	}
	m.persist.store.OnCommit(nil)

	// Failed.
	req.Seed = 2
	if st, _, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	if final := wait(st.ID); final.State != StateFailed {
		t.Fatalf("job ended %q, want failed", final.State)
	}
	if len(resultTemps(t, dir)) != 0 || m.persist.store.Len() != 1 {
		t.Errorf("after a failed job: temps %v, %d entries", resultTemps(t, dir), m.persist.store.Len())
	}

	// Cancelled while running.
	req.Seed = 3
	if st, _, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	<-started
	begun()
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	if final := wait(st.ID); final.State != StateCancelled {
		t.Fatalf("job ended %q, want cancelled", final.State)
	}
	if len(resultTemps(t, dir)) != 0 || m.persist.store.Len() != 1 {
		t.Errorf("after a cancelled job: temps %v, %d entries", resultTemps(t, dir), m.persist.store.Len())
	}

	// Still running when the manager closes.
	req.Seed = 4
	if _, _, err = m.Submit(req); err != nil {
		t.Fatal(err)
	}
	<-started
	begun()
	m.Close()
	if got := resultTemps(t, dir); len(got) != 0 {
		t.Errorf("after Close: temps %v", got)
	}
}
