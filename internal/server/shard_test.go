package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
)

// shardReq is a campaign worth sharding: 24 nodes x 3 models.
var shardReq = jobs.Request{
	Workload:         "excerptA",
	Target:           "iu",
	Nodes:            24,
	Seed:             1,
	InjectAtFraction: 0.3,
}

// TestShardEndpointsDisabled: a daemon without a shard pool answers the
// shard surface with 404 so misconfigured workers fail loudly.
func TestShardEndpointsDisabled(t *testing.T) {
	ts, _ := newTestServer(t, jobs.ManagerOptions{Concurrency: 1})
	resp, err := http.Post(ts.URL+"/api/v1/shards/lease", "application/json",
		strings.NewReader(`{"worker":"w1"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("lease on unsharded daemon: HTTP %d, want 404", resp.StatusCode)
	}
}

// TestRemoteWorkerEndToEnd is the full distributed path in one process:
// a remote-only coordinator (no local shard execution) serves a
// campaign's shards over HTTP to three server.Worker loops, and the
// merged result is byte-identical to unsharded execution. The second
// campaign is transient (seu and 2-cycle set pulses): its sampled
// instants cross the wire and must not depend on which worker ran which
// shard. Every planned shard is merged, and every lease went to w1–w3.
func TestRemoteWorkerEndToEnd(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.ManagerOptions{
		Concurrency:       1,
		Shards:            5,
		ShardLocalWorkers: -1, // every shard must travel over HTTP
	})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	names := []string{"w1", "w2", "w3"}
	for _, name := range names {
		w := &server.Worker{
			Coordinator: ts.URL,
			Name:        name,
			Workers:     2,
			Poll:        10 * time.Millisecond,
		}
		go w.Run(ctx)
	}

	transient := shardReq
	transient.Models, transient.PulseCycles = []string{"seu", "set"}, 2
	for _, req := range []jobs.Request{shardReq, transient} {
		resp, st := post(t, ts.URL, req)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("submit: HTTP %d", resp.StatusCode)
		}
		wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
		final, err := mgr.Wait(wctx, st.ID)
		wcancel()
		if err != nil {
			t.Fatal(err)
		}
		if final.State != jobs.StateDone {
			t.Fatalf("job ended %s: %s", final.State, final.Error)
		}

		code, body := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/result")
		if code != http.StatusOK {
			t.Fatalf("result: HTTP %d", code)
		}
		want, err := jobs.Execute(context.Background(), req, 4, nil)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := jobs.EncodeOutcome(&buf, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, buf.Bytes()) {
			t.Fatalf("models %v: remote-worker result diverged from unsharded execution:\n--- server\n%s\n--- unsharded\n%s", req.Models, body, buf.Bytes())
		}
		if req.PulseCycles != 0 && !bytes.Contains(body, []byte(`"at_cycle"`)) {
			t.Fatal("the transient result carries no sampled injection instants")
		}
	}

	// The pool's accounting surfaces through healthz.
	code, hb := get(t, ts.URL+"/api/v1/healthz")
	if code != http.StatusOK {
		t.Fatalf("healthz: HTTP %d", code)
	}
	var health struct {
		Shards *jobs.ShardStats `json:"shards"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Shards == nil || health.Shards.Planned != 10 || health.Shards.Completed != 10 {
		t.Fatalf("healthz shards = %+v, want 10 planned and 10 completed", health.Shards)
	}
	if len(health.Shards.Workers) == 0 {
		t.Fatal("healthz shards missing worker tallies")
	}
	for w := range health.Shards.Workers {
		if !slices.Contains(names, w) {
			t.Errorf("worker %q leased a shard: one ran outside w1–w3", w)
		}
	}
}

// TestShardProtocolEdges exercises the HTTP mapping of lease errors: an
// unknown lease completes with 410 Gone, progress on it asks the worker
// to cancel, and a malformed body is a 400. Then a hostile worker takes
// both shards of a live remote-only campaign: an oversize progress body is
// a 400 that leaves its lease reporting, a replayed complete is 410 Gone,
// and a complete from another golden run is a 400 that fails the campaign
// with the same error — booked as poisoned, not as a merged shard.
func TestShardProtocolEdges(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.ManagerOptions{
		Concurrency:       1,
		Shards:            2,
		ShardLocalWorkers: -1,
	})
	resp, err := http.Post(ts.URL+"/api/v1/shards/nope/complete", "application/json",
		strings.NewReader(`{"indices":[],"experiments":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("unknown lease complete: HTTP %d, want 410", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/api/v1/shards/nope/progress", "application/json",
		strings.NewReader(`{"done":1,"failures":0}`))
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Cancel bool `json:"cancel"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !rep.Cancel {
		t.Fatalf("unknown lease progress: HTTP %d cancel=%v, want 200 cancel=true", resp.StatusCode, rep.Cancel)
	}
	resp, err = http.Post(ts.URL+"/api/v1/shards/lease", "application/json",
		strings.NewReader(`{bad json`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed lease body: HTTP %d, want 400", resp.StatusCode)
	}

	shardPost := func(url string, body []byte) (int, []byte) {
		t.Helper()
		resp, err := http.Post(ts.URL+url, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, b
	}
	// run leases the next shard and executes it honestly.
	run := func() (string, jobs.ShardOutput) {
		t.Helper()
		deadline := time.Now().Add(time.Minute)
		for {
			code, b := shardPost("/api/v1/shards/lease", []byte(`{"worker":"hostile"}`))
			if code == http.StatusOK {
				var l jobs.ShardLease
				if err := json.Unmarshal(b, &l); err != nil {
					t.Fatal(err)
				}
				out, err := jobs.RunLease(context.Background(), &l, 1, nil, func(int, int) bool { return false })
				if err != nil {
					t.Fatal(err)
				}
				return l.Lease, *out
			}
			if code != http.StatusNoContent || time.Now().After(deadline) {
				t.Fatalf("lease: HTTP %d %s", code, b)
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
	resp, st := post(t, ts.URL, shardReq)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", resp.StatusCode)
	}
	lease, out := run()
	oversize := []byte(`{"done":1,"failures":0,"pad":"` + strings.Repeat("x", 1<<16) + `"}`)
	if code, b := shardPost("/api/v1/shards/"+lease+"/progress", oversize); code != http.StatusBadRequest {
		t.Fatalf("oversize progress: HTTP %d %s, want 400", code, b)
	}
	if code, b := shardPost("/api/v1/shards/"+lease+"/progress", []byte(`{"done":1,"failures":0}`)); code != http.StatusOK {
		t.Fatalf("progress after an oversize body: HTTP %d %s, want 200", code, b)
	}
	body, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if code, b := shardPost("/api/v1/shards/"+lease+"/complete", body); code != http.StatusOK {
		t.Fatalf("complete: HTTP %d %s, want 200", code, b)
	}
	if code, b := shardPost("/api/v1/shards/"+lease+"/complete", body); code != http.StatusGone {
		t.Fatalf("replayed complete: HTTP %d %s, want 410", code, b)
	}
	lease, out = run()
	out.GoldenCycles++
	if body, err = json.Marshal(out); err != nil {
		t.Fatal(err)
	}
	code, refused := shardPost("/api/v1/shards/"+lease+"/complete", body)
	if code != http.StatusBadRequest {
		t.Errorf("complete from another golden run: HTTP %d %s, want 400", code, refused)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	final, err := mgr.Wait(wctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateFailed || !strings.Contains(final.Error, "golden-run metadata diverged") {
		t.Fatalf("job ended %s (%q), want failed on the divergence", final.State, final.Error)
	}
	if !strings.Contains(string(refused), final.Error) {
		t.Errorf("the refusal read %s, want the job's error %q", refused, final.Error)
	}
	if stats := mgr.ShardPool().Stats(); stats.Completed != 1 || stats.Poisoned != 1 {
		t.Errorf("shard stats %+v, want 1 completed and 1 poisoned", stats)
	}
}

// TestDrainStreams pins the shutdown ordering fix: after the manager
// closes, Drain waits for in-flight NDJSON streams to flush their
// terminal snapshot, and new stream subscriptions are refused with 503
// instead of racing the closing listener.
func TestDrainStreams(t *testing.T) {
	release := make(chan struct{})
	mgr := jobs.NewManager(jobs.ManagerOptions{
		Concurrency: 1,
		Executor: func(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
			tap(0, 2, 0)
			select {
			case <-release:
			case <-ctx.Done():
			}
			return nil, ctx.Err()
		},
	})
	srv := server.New(mgr)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})

	_, st := post(t, ts.URL, small)

	// Open a live stream and prove it is attached (first snapshot read).
	resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	first := make([]byte, 1)
	if _, err := resp.Body.Read(first); err != nil {
		t.Fatal(err)
	}

	streamDone := make(chan error, 1)
	go func() {
		// Drain the rest of the stream; a clean EOF (no reset) is the fix.
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				streamDone <- err
				return
			}
		}
	}()

	// Shut down in the daemon's order: manager first (ends the job and
	// the watcher), then drain the streams.
	go func() {
		time.Sleep(50 * time.Millisecond)
		mgr.Close()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case err := <-streamDone:
		if err.Error() != "EOF" {
			t.Fatalf("stream ended with %v, want clean EOF", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream still open after Drain returned")
	}

	// New subscriptions are refused while draining.
	resp2, err := http.Get(ts.URL + "/api/v1/campaigns/" + st.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream during drain: HTTP %d, want 503", resp2.StatusCode)
	}
}

// TestOneLedger: the pool's and the manager's event counts are kept once.
// After a sharded campaign that saw a worker-reported failure and a
// lease lost to the TTL, every shards_*_total and jobs_*_total series on
// /metrics reads exactly the ShardStats / Stats field of the same name in
// the /healthz payload.
func TestOneLedger(t *testing.T) {
	reg := obs.NewRegistry()
	mgr := jobs.NewManager(jobs.ManagerOptions{
		Concurrency:       1,
		Shards:            3,
		ShardLocalWorkers: -1,
		ShardLeaseTTL:     100 * time.Millisecond,
		Obs:               reg,
	})
	ts := httptest.NewServer(server.New(mgr, server.WithObs(reg)).Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	_, st := post(t, ts.URL, shardReq)

	lease := func(worker string) jobs.ShardLease {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
			resp, err := http.Post(ts.URL+"/api/v1/shards/lease", "application/json",
				strings.NewReader(`{"worker":"`+worker+`"}`))
			if err != nil {
				t.Fatal(err)
			}
			var l jobs.ShardLease
			err = json.NewDecoder(resp.Body).Decode(&l)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK && err == nil {
				return l
			}
		}
		t.Fatal("no lease before deadline")
		return jobs.ShardLease{}
	}
	// One explicit failure, then one lease that goes silent past the TTL.
	resp, err := http.Post(ts.URL+"/api/v1/shards/"+lease("flaky").Lease+"/fail", "application/json",
		strings.NewReader(`{"error":"synthetic worker error"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail report: HTTP %d", resp.StatusCode)
	}
	lease("silent")
	time.Sleep(250 * time.Millisecond)

	// A live worker finishes the campaign. Wait for it to exit before
	// reading the books, so its last report is fully settled.
	ctx, cancel := context.WithCancel(context.Background())
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		(&server.Worker{Coordinator: ts.URL, Name: "live", Workers: 2, Poll: 10 * time.Millisecond}).Run(ctx)
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), time.Minute)
	defer wcancel()
	final, err := mgr.Wait(wctx, st.ID)
	cancel()
	<-stopped
	if err != nil || final.State != jobs.StateDone {
		t.Fatalf("job ended %v / %s: %s", err, final.State, final.Error)
	}

	_, hb := get(t, ts.URL+"/api/v1/healthz")
	var health struct {
		Stats  map[string]any `json:"stats"`
		Shards map[string]any `json:"shards"`
	}
	if err := json.Unmarshal(hb, &health); err != nil {
		t.Fatal(err)
	}
	if health.Shards["reclaimed"].(float64) < 1 || health.Shards["requeued"].(float64) < 2 {
		t.Fatalf("healthz shards %v: want the reclaim and the failure on the books", health.Shards)
	}
	_, mb := get(t, ts.URL+"/metrics")
	checked := 0
	for _, line := range strings.Split(string(mb), "\n") {
		name, value, ok := strings.Cut(line, " ")
		field, isTotal := strings.CutSuffix(name, "_total")
		if !ok || !isTotal || strings.HasPrefix(line, "#") {
			continue
		}
		var ledger map[string]any
		if f, ok := strings.CutPrefix(field, "shards_"); ok {
			ledger, field = health.Shards, f
		} else if f, ok := strings.CutPrefix(field, "jobs_"); ok {
			ledger, field = health.Stats, f
		} else {
			continue
		}
		want, ok := ledger[field].(float64)
		if got, err := strconv.ParseFloat(value, 64); !ok || err != nil || got != want {
			t.Errorf("%s = %s, healthz field %q = %v", name, value, field, ledger[field])
		}
		checked++
	}
	if checked != 11 {
		t.Errorf("compared %d ledger series, want the 7 shards_ and 4 jobs_ ones", checked)
	}
}
