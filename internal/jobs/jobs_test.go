package jobs_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/jobs"
)

// small is a cheap real campaign: excerptA's golden run is under a
// thousand cycles and four nodes on one model finish in milliseconds.
var small = jobs.Request{
	Workload:         "excerptA",
	Target:           "iu",
	Models:           []string{"sa1"},
	Nodes:            4,
	Seed:             1,
	InjectAtFraction: 0.3,
}

func TestNormalizeDefaults(t *testing.T) {
	n, err := jobs.Request{Workload: "excerptA"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if n.Target != "iu" {
		t.Errorf("target = %q, want iu", n.Target)
	}
	if want := []string{"sa0", "sa1", "open"}; strings.Join(n.Models, ",") != strings.Join(want, ",") {
		t.Errorf("models = %v, want %v", n.Models, want)
	}
}

func TestNormalizeRejects(t *testing.T) {
	bad := []jobs.Request{
		{}, // no workload
		{Workload: "no-such-workload"},
		{Workload: "excerptA", Target: "alu"}, // unknown target
		{Workload: "excerptA", Models: []string{"sa9"}},        // unknown model
		{Workload: "excerptA", Models: []string{"sa1", "sa1"}}, // duplicate
		{Workload: "excerptA", Nodes: -1},                      // negative
		{Workload: "excerptA", InjectAtFraction: 1.5},          // out of range
		{Workload: "excerptA", InjectAtFraction: math.NaN()},   // non-finite
		{Workload: "excerptA", InjectAtFraction: math.Inf(1)},  // non-finite
		{Workload: "excerptA", Iterations: jobs.MaxIterations + 1},
		{Workload: "excerptA", Models: []string{"set"}, PulseCycles: fault.MaxPulseCycles + 1}, // wraps its release
	}
	for i, req := range bad {
		if _, err := req.Normalize(); err == nil {
			t.Errorf("case %d: %+v accepted", i, req)
		}
	}
}

// TestKeyCanonicalization pins the content-address contract: spelling a
// default out and leaving it blank are the same campaign; changing any
// field that shapes the experiment set is a different one.
func TestKeyCanonicalization(t *testing.T) {
	base := jobs.Request{Workload: "excerptA"}
	spelled := jobs.Request{Workload: "excerptA", Target: "iu", Models: []string{"sa0", "sa1", "open"}}
	k1, err := base.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := spelled.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("defaults spelled out changed the key: %s vs %s", k1, k2)
	}
	// A nonzero fraction overrides the cycle instant in the engine, so a
	// leftover cycle value must not fragment the cache.
	fracOnly, err := jobs.Request{Workload: "excerptA", InjectAtFraction: 0.5}.Key()
	if err != nil {
		t.Fatal(err)
	}
	overridden, err := jobs.Request{Workload: "excerptA", InjectAtFraction: 0.5, InjectAtCycle: 500}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if fracOnly != overridden {
		t.Error("overridden inject_at_cycle fragmented the cache key")
	}
	// Exhaustive campaigns (nodes=0) never consult the sampling seed, so
	// the seed must not fragment the cache key either.
	exh1, err := jobs.Request{Workload: "excerptA", Seed: 1}.Key()
	if err != nil {
		t.Fatal(err)
	}
	exh2, err := jobs.Request{Workload: "excerptA", Seed: 2}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if exh1 != exh2 {
		t.Error("unused seed fragmented the exhaustive-campaign cache key")
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a sha256 hex digest", k1)
	}
	variants := []jobs.Request{
		{Workload: "excerptB"},
		{Workload: "excerptA", Target: "cmem"},
		{Workload: "excerptA", Models: []string{"sa1"}},
		{Workload: "excerptA", Models: []string{"sa1", "sa0", "open"}}, // order matters: different experiment order
		{Workload: "excerptA", Nodes: 16},
		{Workload: "excerptA", Nodes: 16, Seed: 2}, // seed matters when sampling
		{Workload: "excerptA", Iterations: 4},
		{Workload: "excerptA", InjectAtFraction: 0.5},
		{Workload: "excerptA", NoCheckpoint: true},
	}
	seen := map[string]int{k1: -1}
	for i, v := range variants {
		k, err := v.Key()
		if err != nil {
			t.Fatalf("variant %d: %v", i, err)
		}
		if j, dup := seen[k]; dup {
			t.Errorf("variants %d and %d collide: %+v", i, j, v)
		}
		seen[k] = i
	}
}

// TestExecuteDeterministic runs the same small campaign twice and demands
// identical canonical encodings — the property the result cache and the
// CLI/server diffability guarantee both rest on.
func TestExecuteDeterministic(t *testing.T) {
	var taps []int
	a, err := jobs.Execute(context.Background(), small, 2, func(done, total, failures int) {
		taps = append(taps, done)
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := jobs.Execute(context.Background(), small, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ab, bb strings.Builder
	if err := jobs.EncodeOutcome(&ab, a); err != nil {
		t.Fatal(err)
	}
	if err := jobs.EncodeOutcome(&bb, b); err != nil {
		t.Fatal(err)
	}
	if ab.String() != bb.String() {
		t.Fatalf("outcome encodings differ across worker counts:\n%s\nvs\n%s", ab.String(), bb.String())
	}
	if a.Injections != 4 || len(a.Experiments) != 4 {
		t.Errorf("injections = %d, experiments = %d, want 4", a.Injections, len(a.Experiments))
	}
	if a.Pf < a.PfLow || a.Pf > a.PfHigh {
		t.Errorf("Pf %v outside its Wilson interval [%v, %v]", a.Pf, a.PfLow, a.PfHigh)
	}
	if len(taps) == 0 || taps[0] != 0 || taps[len(taps)-1] != 4 {
		t.Errorf("tap sequence %v: want initial 0/total and final total/total", taps)
	}
}

// TestExecuteCancelledBeforeGoldenRun pins the cancellation behaviour of
// runner construction: the golden-run simulation itself cannot be
// interrupted, but a cancelled context must return promptly instead of
// blocking behind it.
func TestExecuteCancelledBeforeGoldenRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// An injection fraction no other test uses, so the runner is not
	// already memoized and a real golden-run build starts.
	req := jobs.Request{
		Workload: "rspeed", Iterations: 10, Models: []string{"sa1"},
		Nodes: 2, InjectAtFraction: 0.37,
	}
	if _, err := jobs.Execute(ctx, req, 1, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// blockingExecutor returns an executor that parks until released (or its
// context is cancelled) and counts executions. A context already cancelled
// when it wakes wins over a release that came with it.
type blockingExecutor struct {
	mu      sync.Mutex
	started chan string // job keys in execution order
	release chan struct{}
	runs    int
}

func newBlockingExecutor() *blockingExecutor {
	return &blockingExecutor{started: make(chan string, 16), release: make(chan struct{})}
}

func (b *blockingExecutor) exec(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
	b.mu.Lock()
	b.runs++
	b.mu.Unlock()
	key, _ := req.Key()
	b.started <- key
	if tap != nil {
		tap(0, 10, 0)
	}
	select {
	case <-b.release:
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if tap != nil {
			tap(10, 10, 3)
		}
		return &jobs.Outcome{Request: req, Injections: 10, Failures: 3, Pf: 0.3}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (b *blockingExecutor) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.runs
}

func TestManagerCoalesceAndCache(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 2, Executor: be.exec})
	defer m.Close()

	st1, fresh, err := m.Submit(small)
	if err != nil || !fresh {
		t.Fatalf("first submit: fresh=%v err=%v", fresh, err)
	}
	<-be.started // wait until the job is running

	st2, fresh, err := m.Submit(small)
	if err != nil || fresh {
		t.Fatalf("duplicate submit: fresh=%v err=%v", fresh, err)
	}
	if st2.ID != st1.ID {
		t.Fatalf("duplicate submission got job %s, want coalesced onto %s", st2.ID, st1.ID)
	}

	close(be.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateDone || final.Result == nil {
		t.Fatalf("final state %v, result %v", final.State, final.Result)
	}

	st3, fresh, err := m.Submit(small)
	if err != nil || fresh {
		t.Fatalf("cache-hit submit: fresh=%v err=%v", fresh, err)
	}
	if st3.ID != st1.ID || st3.Result == nil {
		t.Fatalf("cache hit returned job %s (result %v), want completed %s", st3.ID, st3.Result, st1.ID)
	}
	if got := be.count(); got != 1 {
		t.Fatalf("engine ran %d times for three submissions, want 1", got)
	}
	s := m.ManagerStats()
	if s.Submitted != 3 || s.Coalesced != 1 || s.CacheHits != 1 || s.Executed != 1 {
		t.Errorf("stats = %+v, want 3 submitted / 1 coalesced / 1 cache hit / 1 executed", s)
	}
}

func TestManagerCancelRunning(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, Executor: be.exec})
	defer m.Close()

	st, _, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	<-be.started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateCancelled {
		t.Fatalf("state = %v, want cancelled", final.State)
	}
	if _, err := m.Cancel(st.ID); !errors.Is(err, jobs.ErrTerminal) {
		t.Errorf("cancelling a terminal job: %v, want ErrTerminal", err)
	}

	// The key is released: resubmitting retries instead of serving the
	// cancelled job.
	st2, fresh, err := m.Submit(small)
	if err != nil || !fresh {
		t.Fatalf("resubmit after cancel: fresh=%v err=%v", fresh, err)
	}
	if st2.ID == st.ID {
		t.Error("resubmission reused the cancelled job")
	}
	<-be.started
	close(be.release)
}

// TestCancelReleasesKeyImmediately pins that the content key is freed at
// Cancel time, not when the worker notices: a resubmission inside that
// window must start a fresh job instead of coalescing onto the dying one.
func TestCancelReleasesKeyImmediately(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 2, Executor: be.exec})
	defer m.Close()

	st, _, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	<-be.started
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	// The worker has not observed the cancellation yet (the executor is
	// still parked), but the key must already be free.
	st2, fresh, err := m.Submit(small)
	if err != nil || !fresh {
		t.Fatalf("resubmit in the cancel window: fresh=%v err=%v", fresh, err)
	}
	if st2.ID == st.ID {
		t.Fatal("resubmission coalesced onto the dying job")
	}
	close(be.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if final, err := m.Wait(ctx, st.ID); err != nil || final.State != jobs.StateCancelled {
		t.Fatalf("first job: %v %v", final.State, err)
	}
	if final, err := m.Wait(ctx, st2.ID); err != nil || final.State != jobs.StateDone {
		t.Fatalf("second job: %v %v", final.State, err)
	}
}

func TestManagerCancelQueued(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, Executor: be.exec})
	defer m.Close()

	blocker, _, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	<-be.started

	queued := small
	queued.Seed = 99
	st, fresh, err := m.Submit(queued)
	if err != nil || !fresh {
		t.Fatalf("queued submit: fresh=%v err=%v", fresh, err)
	}
	if st.State != jobs.StateQueued {
		t.Fatalf("state = %v, want queued", st.State)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != jobs.StateCancelled {
		t.Fatalf("state = %v, want cancelled immediately", got.State)
	}
	close(be.release)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := m.Wait(ctx, blocker.ID); err != nil {
		t.Fatal(err)
	}
	// The cancelled queued job must never have reached the engine.
	if got := be.count(); got != 1 {
		t.Errorf("engine ran %d times, want 1 (cancelled job skipped)", got)
	}
}

func TestManagerQueueFull(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, QueueDepth: 1, Executor: be.exec})
	defer m.Close()

	if _, _, err := m.Submit(small); err != nil {
		t.Fatal(err)
	}
	<-be.started
	q1 := small
	q1.Seed = 2
	if _, _, err := m.Submit(q1); err != nil {
		t.Fatal(err)
	}
	q2 := small
	q2.Seed = 3
	if _, _, err := m.Submit(q2); !errors.Is(err, jobs.ErrQueueFull) {
		t.Fatalf("third submit: %v, want ErrQueueFull", err)
	}
	// Rejected submissions are not counted as accepted.
	if s := m.ManagerStats(); s.Submitted != 2 {
		t.Errorf("Submitted = %d after a queue-full rejection, want 2", s.Submitted)
	}
	close(be.release)
}

// TestQueueCapacityReleasedByCancel pins that a job cancelled while
// queued frees its capacity slot immediately — the queue bound counts
// live queued jobs, not FIFO carcasses.
func TestQueueCapacityReleasedByCancel(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, QueueDepth: 1, Executor: be.exec})
	defer m.Close()

	if _, _, err := m.Submit(small); err != nil {
		t.Fatal(err)
	}
	<-be.started
	q1 := small
	q1.Seed = 2
	st, _, err := m.Submit(q1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	q2 := small
	q2.Seed = 3
	if _, fresh, err := m.Submit(q2); err != nil || !fresh {
		t.Fatalf("submit after cancelling the queued job: fresh=%v err=%v", fresh, err)
	}
	close(be.release)
}

// TestManagerRetentionBound pins the eviction policy: beyond MaxJobs the
// oldest terminal jobs disappear — cached outcomes included, so an
// evicted spec reruns — while newer jobs survive.
func TestManagerRetentionBound(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{
		Concurrency: 1,
		MaxJobs:     2,
		Executor: func(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
			return &jobs.Outcome{Request: req}, nil
		},
	})
	defer m.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var ids []string
	for seed := int64(1); seed <= 4; seed++ {
		req := small
		req.Seed = seed
		st, fresh, err := m.Submit(req)
		if err != nil || !fresh {
			t.Fatalf("seed %d: fresh=%v err=%v", seed, fresh, err)
		}
		ids = append(ids, st.ID)
		if _, err := m.Wait(ctx, st.ID); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(m.List()); got != 2 {
		t.Fatalf("retained %d jobs, want 2", got)
	}
	if _, err := m.Get(ids[0]); !errors.Is(err, jobs.ErrNotFound) {
		t.Errorf("oldest job still retrievable: %v", err)
	}
	if _, err := m.Get(ids[3]); err != nil {
		t.Errorf("newest job evicted: %v", err)
	}
	// The evicted outcome left the cache: resubmitting is fresh again.
	req := small
	req.Seed = 1
	if _, fresh, err := m.Submit(req); err != nil || !fresh {
		t.Errorf("resubmit of evicted spec: fresh=%v err=%v", fresh, err)
	}
}

func TestManagerWatch(t *testing.T) {
	be := newBlockingExecutor()
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, Executor: be.exec})
	defer m.Close()

	st, _, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	<-be.started
	close(be.release)

	var last jobs.Progress
	n := 0
	for p := range ch {
		if p.Done < last.Done {
			t.Errorf("progress went backwards: %d after %d", p.Done, last.Done)
		}
		last = p
		n++
	}
	if n == 0 {
		t.Fatal("no progress snapshots")
	}
	if last.State != jobs.StateDone || last.Done != 10 || last.Failures != 3 {
		t.Errorf("terminal snapshot = %+v, want done state with 10/10 and 3 failures", last)
	}
	if last.Pf != 0.3 {
		t.Errorf("terminal Pf = %v, want 0.3", last.Pf)
	}

	// Watching a terminal job yields its final snapshot and closes.
	ch2, unsub2, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub2()
	p, ok := <-ch2
	if !ok || p.State != jobs.StateDone {
		t.Fatalf("terminal watch: %+v ok=%v", p, ok)
	}
	if _, ok := <-ch2; ok {
		t.Error("terminal watch channel not closed after final snapshot")
	}
}

// TestWatchPacesSnapshots holds a watcher's intermediate snapshots to one
// per 50 ms: a campaign that reports every experiment in a burst, stalls,
// then bursts again shows its watcher the stall's far side, not a snapshot
// per 64th of the campaign — so how many lines a progress stream carries
// does not hang on how the campaign's shards and the host's load interleave
// its reports.
func TestWatchPacesSnapshots(t *testing.T) {
	const n = 768
	started, release := make(chan struct{}), make(chan struct{})
	exec := func(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
		close(started)
		<-release
		for d := 1; d <= n; d++ {
			tap(d, n, 0)
			if d == n/2 {
				time.Sleep(150 * time.Millisecond)
			}
		}
		return &jobs.Outcome{Request: req, Injections: n}, nil
	}
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, Executor: exec})
	defer m.Close()
	st, _, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	<-started
	ch, unsub, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	close(release)

	var mid []int // Done of every snapshot between the first and the terminal one
	var last jobs.Progress
	for p := range ch {
		if last.State != "" && !p.State.Terminal() {
			mid = append(mid, p.Done)
		}
		last = p
	}
	if last.State != jobs.StateDone || last.Done != n {
		t.Fatalf("terminal snapshot = %+v, want done with %d", last, n)
	}
	// One snapshot past the stall; a scheduler hiccup of 50 ms inside a burst
	// may add one more, a snapshot per 64th would add sixty.
	past := 0
	for _, d := range mid {
		if d > n/2 {
			past++
		}
	}
	if past == 0 || len(mid) > 3 {
		t.Errorf("intermediate snapshots at done = %v, want the one past the stall at %d and no more than a hiccup's", mid, n/2)
	}
}

// TestManagerRealCancellation exercises the full stack — manager, Execute
// and the fault engine's context plumbing — and checks an in-flight
// campaign stops within one experiment granule of cancellation.
func TestManagerRealCancellation(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, CampaignWorkers: 1})
	defer m.Close()

	// Exhaustive IU sweep over all three models: far more experiments
	// than could finish before the cancel lands — on a runner that has
	// resolved none of them, so a second -count round is as slow as the first.
	jobs.ForgetRunners()
	big := jobs.Request{Workload: "excerptA", InjectAtFraction: 0.3}
	st, _, err := m.Submit(big)
	if err != nil {
		t.Fatal(err)
	}
	ch, unsub, err := m.Watch(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer unsub()
	// Wait for the first running snapshot with a known total, then cancel.
	var total int
	for p := range ch {
		if p.State == jobs.StateRunning && p.Total > 0 {
			total = p.Total
			break
		}
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateCancelled {
		t.Fatalf("state = %v, want cancelled", final.State)
	}
	if final.Progress.Done >= total {
		t.Errorf("campaign completed all %d experiments despite cancellation", total)
	}
}

func TestManagerClosedRejectsSubmissions(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1, Executor: newBlockingExecutor().exec})
	m.Close()
	if _, _, err := m.Submit(small); !errors.Is(err, jobs.ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestManagerConcurrentSubmissions hammers one manager with identical and
// distinct requests from many goroutines under -race: identical requests
// must collapse onto one job, distinct ones must all complete.
func TestManagerConcurrentSubmissions(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 2})
	defer m.Close()

	const dup = 8
	ids := make([]string, dup)
	var wg sync.WaitGroup
	for i := 0; i < dup; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _, err := m.Submit(small)
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	// Two distinct requests racing with the duplicates.
	distinct := []jobs.Request{small, small}
	distinct[0].Seed = 7
	distinct[1].Models = []string{"sa0"}
	other := make([]string, len(distinct))
	for i, req := range distinct {
		wg.Add(1)
		go func(i int, req jobs.Request) {
			defer wg.Done()
			st, _, err := m.Submit(req)
			if err != nil {
				t.Error(err)
				return
			}
			other[i] = st.ID
		}(i, req)
	}
	wg.Wait()
	for i := 1; i < dup; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("duplicate submissions got jobs %v", ids)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, id := range append([]string{ids[0]}, other...) {
		final, err := m.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if final.State != jobs.StateDone {
			t.Fatalf("job %s: state %v (%s)", id, final.State, final.Error)
		}
	}
	if got := m.ManagerStats().Executed; got != 3 {
		t.Errorf("engine ran %d times, want 3 (one per distinct request)", got)
	}
}

func TestManagerUnknownWorkloadRejected(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{Concurrency: 1})
	defer m.Close()
	if _, _, err := m.Submit(jobs.Request{Workload: "no-such-benchmark"}); err == nil {
		t.Fatal("unknown workload accepted at submit")
	}
}

// TestManagerFailedJobReleasesKey pins the retry contract for execution
// failures: the job reports failed with its error and the key is freed so
// a resubmission runs again.
func TestManagerFailedJobReleasesKey(t *testing.T) {
	m := jobs.NewManager(jobs.ManagerOptions{
		Concurrency: 1,
		Executor: func(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
			return nil, errors.New("engine exploded")
		},
	})
	defer m.Close()
	st, _, err := m.Submit(small)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	final, err := m.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateFailed || final.Error != "engine exploded" {
		t.Fatalf("state = %v (%q), want failed with the executor's error", final.State, final.Error)
	}
	// A failed key is released, so a resubmission is fresh.
	if _, fresh, err := m.Submit(small); err != nil || !fresh {
		t.Errorf("resubmit after failure: fresh=%v err=%v", fresh, err)
	}
}

// TestTransientContentAddress pins the cache-safety rules of the
// transient knobs: model lists and pulse width participate in the
// content address (a cached permanent result can never be served for a
// transient request), the pulse is normalized away when no "set" model
// can consume it, and the sampling seed survives normalization for
// transient campaigns even when the node set is exhaustive (it drives
// injection-cycle sampling there).
func TestTransientContentAddress(t *testing.T) {
	key := func(r jobs.Request) string {
		t.Helper()
		k, err := r.Key()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	perm := key(jobs.Request{Workload: "excerptA"})
	seu := key(jobs.Request{Workload: "excerptA", Models: []string{"seu"}})
	if perm == seu {
		t.Fatal("seu request shares the permanent trio's content address")
	}

	set1 := key(jobs.Request{Workload: "excerptA", Models: []string{"set"}})
	set1b := key(jobs.Request{Workload: "excerptA", Models: []string{"set"}, PulseCycles: 1})
	set4 := key(jobs.Request{Workload: "excerptA", Models: []string{"set"}, PulseCycles: 4})
	if set1 != set1b {
		t.Error("default pulse width and spelled-out 1 hash differently")
	}
	if set1 == set4 {
		t.Error("pulse width did not change the content address")
	}

	// Without the set model the pulse shapes nothing and must not
	// fragment the key.
	sa1 := key(jobs.Request{Workload: "excerptA", Models: []string{"sa1"}})
	sa1p := key(jobs.Request{Workload: "excerptA", Models: []string{"sa1"}, PulseCycles: 9})
	if sa1 != sa1p {
		t.Error("pulse width fragmented a permanent-only request")
	}

	// Exhaustive permanent campaigns drop the seed; exhaustive transient
	// ones keep it (it picks the injection cycles).
	permS1 := key(jobs.Request{Workload: "excerptA", Models: []string{"sa1"}, Seed: 1})
	permS2 := key(jobs.Request{Workload: "excerptA", Models: []string{"sa1"}, Seed: 2})
	if permS1 != permS2 {
		t.Error("seed fragmented an exhaustive permanent campaign")
	}
	seuS1 := key(jobs.Request{Workload: "excerptA", Models: []string{"seu"}, Seed: 1})
	seuS2 := key(jobs.Request{Workload: "excerptA", Models: []string{"seu"}, Seed: 2})
	if seuS1 == seuS2 {
		t.Error("seed ignored by an exhaustive transient campaign")
	}

	// The empty model list still means the paper's permanent trio — the
	// transient models must be opted into by name.
	n, err := jobs.Request{Workload: "excerptA"}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(n.Models) != 3 {
		t.Fatalf("default model list = %v, want the permanent trio", n.Models)
	}
	if _, err := (jobs.Request{Workload: "excerptA", Models: []string{"flip"}}).Normalize(); err == nil {
		t.Error("unknown transient model name accepted")
	}
}
