package server_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/jobs"
	"repro/internal/server"
)

// small is the same cheap real campaign the jobs tests use.
var small = jobs.Request{
	Workload:         "excerptA",
	Target:           "iu",
	Models:           []string{"sa1"},
	Nodes:            4,
	Seed:             1,
	InjectAtFraction: 0.3,
}

func newTestServer(t *testing.T, opts jobs.ManagerOptions) (*httptest.Server, *jobs.Manager) {
	t.Helper()
	mgr := jobs.NewManager(opts)
	ts := httptest.NewServer(server.New(mgr).Handler())
	t.Cleanup(func() {
		ts.Close()
		mgr.Close()
	})
	return ts, mgr
}

func post(t *testing.T, url string, req jobs.Request) (*http.Response, jobs.Status) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st jobs.Status
	if resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
	}
	return resp, st
}

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
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

// TestSubmitStatusStreamResult drives the happy path end to end with the
// real engine: submit, stream NDJSON progress to completion, fetch the
// result, and check the acceptance contract — a duplicate submission
// coalesces or cache-hits (engine runs once), both result payloads are
// byte-identical, and they match the canonical encoding `faultcampaign
// -json` produces for the same spec.
func TestSubmitStatusStreamResult(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.ManagerOptions{Concurrency: 2})

	resp1, st1 := post(t, ts.URL, small)
	if resp1.StatusCode != http.StatusCreated {
		t.Fatalf("first submit: %d, want 201", resp1.StatusCode)
	}
	resp2, st2 := post(t, ts.URL, small)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: %d, want 200", resp2.StatusCode)
	}
	if st2.ID != st1.ID {
		t.Fatalf("duplicate submission got %s, want %s", st2.ID, st1.ID)
	}

	// Stream progress until the terminal snapshot.
	sresp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st1.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	var last jobs.Progress
	lines := 0
	sc := bufio.NewScanner(sresp.Body)
	for sc.Scan() {
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines++
	}
	if lines == 0 {
		t.Fatal("stream produced no snapshots")
	}
	if !last.State.Terminal() {
		t.Fatalf("stream ended on non-terminal snapshot %+v", last)
	}
	if last.State != jobs.StateDone || last.Done != last.Total || last.Total != 4 {
		t.Fatalf("terminal snapshot %+v, want done 4/4", last)
	}
	if last.Pf < last.PfLow || last.Pf > last.PfHigh {
		t.Errorf("progressive Pf %v outside Wilson interval [%v, %v]", last.Pf, last.PfLow, last.PfHigh)
	}

	// Status now embeds the result.
	code, body := get(t, ts.URL+"/api/v1/campaigns/"+st1.ID)
	if code != http.StatusOK {
		t.Fatalf("status: %d", code)
	}
	var final jobs.Status
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatal(err)
	}
	if final.State != jobs.StateDone || final.Result == nil {
		t.Fatalf("final status %+v", final)
	}

	// Result payloads: byte-identical across fetches and against the
	// CLI's canonical encoding.
	code, res1 := get(t, ts.URL+"/api/v1/campaigns/"+st1.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: %d", code)
	}
	_, res2 := get(t, ts.URL+"/api/v1/campaigns/"+st1.ID+"/result")
	if !bytes.Equal(res1, res2) {
		t.Fatal("repeated result fetches differ")
	}
	// The body is the job's one stored encoding, sent with its length.
	if resp, err := http.Get(ts.URL + "/api/v1/campaigns/" + st1.ID + "/result"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.ContentLength != int64(len(res1)) {
		t.Errorf("result Content-Length %d for a %d-byte body", resp.ContentLength, len(res1))
	}
	out, err := jobs.Execute(context.Background(), small, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var cli bytes.Buffer
	if err := jobs.EncodeOutcome(&cli, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(res1, cli.Bytes()) {
		t.Fatalf("server result differs from CLI canonical encoding:\n%s\nvs\n%s", res1, cli.Bytes())
	}

	// The engine ran exactly once for the two submissions.
	if s := mgr.ManagerStats(); s.Executed != 1 || s.Submitted != 2 {
		t.Errorf("stats %+v: want 2 submissions, 1 execution", s)
	}

	// A third submission after completion is a cache hit with the same
	// job and an immediately-available result.
	resp3, st3 := post(t, ts.URL, small)
	if resp3.StatusCode != http.StatusOK || st3.ID != st1.ID || st3.Result == nil {
		t.Fatalf("cache-hit submit: %d id=%s result=%v", resp3.StatusCode, st3.ID, st3.Result)
	}
}

func TestListAndHealth(t *testing.T) {
	ts, _ := newTestServer(t, jobs.ManagerOptions{Concurrency: 1})
	post(t, ts.URL, small)
	code, body := get(t, ts.URL+"/api/v1/campaigns")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	var list struct {
		Jobs []jobs.Status `json:"jobs"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 1 {
		t.Fatalf("list has %d jobs, want 1", len(list.Jobs))
	}
	code, body = get(t, ts.URL+"/api/v1/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status": "ok"`) {
		t.Fatalf("healthz: %d %s", code, body)
	}
	code, body = get(t, ts.URL+"/api/v1/workloads")
	if code != http.StatusOK || !strings.Contains(string(body), "excerptA") {
		t.Fatalf("workloads: %d %s", code, body)
	}
}

func TestCancelEndpoint(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, _ := newTestServer(t, jobs.ManagerOptions{
		Concurrency: 1,
		Executor: func(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &jobs.Outcome{Request: req}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(release)

	_, st := post(t, ts.URL, small)
	<-started

	creq, err := http.NewRequest(http.MethodDelete, ts.URL+"/api/v1/campaigns/"+st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %d", resp.StatusCode)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, body := get(t, ts.URL+"/api/v1/campaigns/"+st.ID)
		if code != http.StatusOK {
			t.Fatalf("status after cancel: %d", code)
		}
		var got jobs.Status
		if err := json.Unmarshal(body, &got); err != nil {
			t.Fatal(err)
		}
		if got.State == jobs.StateCancelled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %v after cancel", got.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
	// Cancelling a terminal job conflicts.
	resp, err = http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("double cancel: %d, want 409", resp.StatusCode)
	}
}

func TestValidationAndErrors(t *testing.T) {
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	ts, _ := newTestServer(t, jobs.ManagerOptions{
		Concurrency: 1,
		Executor: func(ctx context.Context, req jobs.Request, workers int, tap jobs.Tap) (*jobs.Outcome, error) {
			started <- struct{}{}
			select {
			case <-release:
				return &jobs.Outcome{Request: req}, nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		},
	})
	defer close(release)

	// Malformed body and invalid request fields are 400s.
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}
	badModel := small
	badModel.Models = []string{"sa9"}
	if resp, _ := post(t, ts.URL, badModel); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad model: %d, want 400", resp.StatusCode)
	}
	if resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json",
		strings.NewReader(`{"workload":"x","bogus":1}`)); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("unknown field: %d, want 400", resp.StatusCode)
		}
	}

	// Unknown job IDs are 404s on every per-job route.
	for _, path := range []string{"", "/result", "/stream"} {
		if code, _ := get(t, ts.URL+"/api/v1/campaigns/job-999999"+path); code != http.StatusNotFound {
			t.Errorf("unknown id on %q: %d, want 404", path, code)
		}
	}

	// Result before completion is a 409.
	_, st := post(t, ts.URL, small)
	<-started
	if code, _ := get(t, ts.URL+"/api/v1/campaigns/"+st.ID+"/result"); code != http.StatusConflict {
		t.Errorf("early result: %d, want 409", code)
	}
}

// TestConcurrentSubmissions races many identical HTTP submissions under
// -race: exactly one engine execution, one job ID, and identical result
// bytes for every client.
func TestConcurrentSubmissions(t *testing.T) {
	ts, mgr := newTestServer(t, jobs.ManagerOptions{Concurrency: 2})

	const n = 10
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, _ := json.Marshal(small)
			resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var st jobs.Status
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if ids[i] != ids[0] {
			t.Fatalf("submission %d got job %s, others %s", i, ids[i], ids[0])
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := mgr.Wait(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	var first []byte
	for i := 0; i < 3; i++ {
		code, body := get(t, ts.URL+fmt.Sprintf("/api/v1/campaigns/%s/result", ids[0]))
		if code != http.StatusOK {
			t.Fatalf("result fetch %d: %d", i, code)
		}
		if first == nil {
			first = body
		} else if !bytes.Equal(first, body) {
			t.Fatal("result bytes differ between fetches")
		}
	}
	if s := mgr.ManagerStats(); s.Executed != 1 {
		t.Fatalf("engine ran %d times for %d submissions, want 1", s.Executed, n)
	}
}
