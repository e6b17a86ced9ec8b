package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/jobs"
)

// The tests here run the daemon across a real process boundary: the test
// binary starts itself again, TestMain sees daemonEnv — which only start
// sets, for its own children — and runs main on the child's arguments. So
// every daemon below is faultserverd's own main, parsing real flags, bound
// to a real port, printing the real address line and killed with a real
// SIGKILL, with no build step and no second binary.
const daemonEnv = "FAULTSERVERD_TEST_DAEMON"

func TestMain(m *testing.M) {
	if os.Getenv(daemonEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// client bounds every request, so a daemon that stops answering fails the
// test instead of hanging it.
var client = &http.Client{Timeout: time.Minute}

// Every campaign injects at 0.3 of the golden run. serveCampaign is small:
// excerptA's golden run is under a thousand cycles. overlapCampaign draws
// the same six nodes first, so on a warm daemon it finds their stuck-at-1
// verdicts on the runner serveCampaign left, beside eighteen nodes and two
// models that runner has not resolved. crashCampaign is 240 experiments in
// 24 shards, so the journal grows shard by shard; crashIters sizes it per
// build, so that three kill cycles land mid-campaign with or without the
// race detector. No epsilon: adaptive stopping is order-sensitive, and the
// crash test is about byte identity. cmd/faultcampaign's
// TestJSONSpellingsAgree holds `faultcampaign -json` to the same bytes.
var (
	serveCampaign   = jobs.Request{Workload: "excerptA", Target: "iu", Models: []string{"sa1"}, Nodes: 6, Seed: 1, InjectAtFraction: 0.3}
	overlapCampaign = jobs.Request{Workload: "excerptA", Target: "iu", Models: []string{"sa0", "sa1", "open"}, Nodes: 24, Seed: 1, InjectAtFraction: 0.3}
	crashCampaign   = jobs.Request{Workload: "rspeed", Iterations: crashIters, Target: "iu", Models: []string{"sa0", "sa1"}, Nodes: 120, Seed: 1, InjectAtFraction: 0.3}
)

const crashShards = 24

// TestServe boots a sharded, durable daemon on an ephemeral port and holds
// it to the service contract over HTTP: a duplicate submission coalesces or
// hits the store (one engine execution), both result fetches and
// jobs.Execute of the same request are byte-identical, and a campaign that
// overlaps the first runs partly on what the first left on the warm runner
// and still equals a cold run. /metrics is scraped mid-campaign and after,
// and must carry every instrumented layer with sane values. A second daemon
// on the bound address fails to boot; SIGTERM stops the first cleanly.
func TestServe(t *testing.T) {
	// The references, computed in this process before anything else runs
	// here: overlapCampaign first, so its runner is cold.
	overlapWant := outcomeBytes(t, overlapCampaign)
	serveWant := outcomeBytes(t, serveCampaign)

	srv, base := boot(t, "daemon", "-addr", "127.0.0.1:0", "-jobs", "1", "-shards", "2",
		"-data-dir", filepath.Join(t.TempDir(), "data"))

	second := start(t, "second daemon", "-addr", strings.TrimPrefix(base, "http://"))
	if code := exitCode(t, second); code != 1 || strings.Contains(second.stdout.buf.String(), "listening on") {
		t.Errorf("a second daemon on %s exited %d with stdout %q: want 1 and no address line", base, code, second.stdout.buf.String())
	}

	id := submit(t, base, serveCampaign, http.StatusCreated, "first submission")
	if id2 := submit(t, base, serveCampaign, http.StatusOK, "second submission (coalesced or cached)"); id2 != id {
		t.Fatalf("second submission got job %s, want %s", id2, id)
	}
	// While the campaign is at most in flight, the exposition must parse.
	mid := scrapeMetrics(t, base)
	streamDone(t, base, id, "job")

	var health struct {
		Stats struct {
			Executed  int `json:"executed"`
			Submitted int `json:"submitted"`
		} `json:"stats"`
	}
	getJSON(t, base+"/api/v1/healthz", &health)
	if health.Stats.Executed != 1 || health.Stats.Submitted != 2 {
		t.Errorf("stats %+v: want 2 submissions, 1 execution", health.Stats)
	}
	res := getBytes(t, base+"/api/v1/campaigns/"+id+"/result")
	if again := getBytes(t, base+"/api/v1/campaigns/"+id+"/result"); !bytes.Equal(res, again) {
		t.Error("result payloads differ between fetches")
	}
	if !bytes.Equal(res, serveWant) {
		t.Errorf("daemon result and jobs.Execute diverge:\n--- daemon\n%s\n--- in process\n%s", res, serveWant)
	}
	checkMetrics(t, mid, scrapeMetrics(t, base))

	id3 := submit(t, base, overlapCampaign, http.StatusCreated, "overlapping submission")
	streamDone(t, base, id3, "overlapping job")
	if warm := getBytes(t, base+"/api/v1/campaigns/"+id3+"/result"); !bytes.Equal(warm, overlapWant) {
		t.Errorf("the overlapping campaign on the warm daemon and a cold run diverge:\n--- daemon\n%s\n--- cold\n%s", warm, overlapWant)
	}
	if known := scrapeMetrics(t, base)[`engine_verdicts_proven_total{proof="known"}`]; known == 0 {
		t.Error("the overlapping campaign found no verdict the first had left on its runner")
	}

	srv.cmd.Process.Signal(syscall.SIGTERM)
	if code := exitCode(t, srv); code != 0 {
		t.Errorf("daemon exited %d after SIGTERM, want 0", code)
	}
}

// TestBootFailures: a daemon that cannot serve says why on stderr and exits
// 1, never printing an address.
func TestBootFailures(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name, why string
		args      []string
	}{
		{"worker without coordinator", "-worker requires -coordinator", []string{"-worker"}},
		{"data dir is a file", "boot failed", []string{"-addr", "127.0.0.1:0", "-data-dir", file}},
	} {
		d := start(t, c.name, c.args...)
		if code := exitCode(t, d); code != 1 || !strings.Contains(d.stderr.String(), c.why) || d.stdout.buf.Len() != 0 {
			t.Errorf("%s: exit %d, stdout %q, stderr %q: want 1, nothing and %q", c.name, code, d.stdout.buf.String(), d.stderr.String(), c.why)
		}
	}
}

// TestCrashRecovery is the durability contract end to end. A durable
// remote-only coordinator and three worker processes run crashCampaign; the
// coordinator is SIGKILLed at three points gated on the journal's growth
// (cycle 2 also SIGKILLs a worker and starts another) and restarted on the
// same address each time. The workers are told nothing: they ride out the
// dead coordinator on their lease backoff, get 410 Gone for leases the new
// process never granted, and pull fresh ones from the recovered campaign.
//
//   - each kill lands mid-campaign, and every restarted coordinator has
//     resumed the campaign from its journal: a resubmission is HTTP 200,
//     never a fresh 201;
//   - the merged outcome after three crashes is byte-identical to the
//     undisturbed, unsharded jobs.Execute of the same request;
//   - after one more SIGKILL, a fresh coordinator answers a resubmission
//     from the on-disk store: done at once, zero engine executions, the
//     same bytes;
//   - no restart leaves a temp file anywhere in the data directory.
//
// Each kill lingers a seeded random beat (under 250 ms) past its gate, one
// subtest per seed, so `-run 'TestCrashRecovery/seed=N'` replays a
// schedule: seed 2 lingers 36, 36 and 192 ms, seed 9 151, 210 and 242 ms,
// the longest of the first dozen seeds and so the one that leaves the
// campaign least to run at each kill.
func TestCrashRecovery(t *testing.T) {
	want := outcomeBytes(t, crashCampaign)
	for _, seed := range []int64{2, 9} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) { crashCycles(t, seed, want) })
	}
}

func crashCycles(t *testing.T, seed int64, want []byte) {
	rng := rand.New(rand.NewSource(seed))
	dataDir := filepath.Join(t.TempDir(), "data")
	journal := filepath.Join(dataDir, "journal.ndjson")

	// The coordinator comes back on the same address after each SIGKILL,
	// so the workers' URL stays valid: reserve a free port once. The
	// reuse race is closed by startCoordinator's bind retry.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	base := "http://" + addr

	coord := startCoordinator(t, addr, dataDir, "coordinator")
	var workers []*daemon
	startWorker := func() {
		id := fmt.Sprintf("w%d", len(workers)+1)
		workers = append(workers, start(t, "worker "+id, "-worker", "-coordinator", base,
			"-worker-id", id, "-campaign-workers", "1", "-worker-backoff-max", "500ms"))
	}
	for range 3 {
		startWorker()
	}
	id := submit(t, base, crashCampaign, http.StatusCreated, "first submission")

	for cycle := 1; cycle <= 3; cycle++ {
		awaitShard(t, base, id, journal, cycle)
		time.Sleep(time.Duration(rng.Intn(250)) * time.Millisecond)
		if cycle == 2 {
			workers[1].kill() // w2
			startWorker()
		}
		coord.kill()
		// The journal as the dead coordinator left it: the next boot
		// compacts it.
		if n := countShardRecords(journal); n >= crashShards {
			t.Fatalf("cycle %d: all %d shards were journaled before the SIGKILL: the campaign is too short for this build", cycle, n)
		} else {
			t.Logf("cycle %d: SIGKILLed the coordinator with %d of %d shards unjournaled", cycle, crashShards-n, crashShards)
		}
		coord = startCoordinator(t, addr, dataDir, fmt.Sprintf("coordinator after kill %d", cycle))
		id = submit(t, base, crashCampaign, http.StatusOK, fmt.Sprintf("cycle %d: resubmission", cycle))
		noTemps(t, dataDir, fmt.Sprintf("cycle %d", cycle))
	}

	// Let the survivors finish the campaign.
	var st struct {
		State string `json:"state"`
	}
	for deadline := time.Now().Add(2 * time.Minute); st.State != "done"; time.Sleep(100 * time.Millisecond) {
		getJSON(t, base+"/api/v1/campaigns/"+id, &st)
		if st.State == "failed" || st.State == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("campaign not done within 2m: state %q", st.State)
		}
	}
	crashed := getBytes(t, base+"/api/v1/campaigns/"+id+"/result")
	if !bytes.Equal(crashed, want) {
		t.Fatalf("crash-recovered result and undisturbed jobs.Execute diverge:\n--- crashed\n%s\n--- undisturbed\n%s", crashed, want)
	}

	// The finished result outlives the process.
	coord.kill()
	startCoordinator(t, addr, dataDir, "coordinator after the final kill")
	fid := submit(t, base, crashCampaign, http.StatusOK, "post-crash resubmission (stored result)")
	getJSON(t, base+"/api/v1/campaigns/"+fid, &st)
	if st.State != "done" {
		t.Errorf("post-crash resubmission is %q, want done at once from the store", st.State)
	}
	var health struct {
		Stats struct {
			Executed  int `json:"executed"`
			CacheHits int `json:"cache_hits"`
		} `json:"stats"`
	}
	getJSON(t, base+"/api/v1/healthz", &health)
	if health.Stats.Executed != 0 || health.Stats.CacheHits < 1 {
		t.Errorf("fresh coordinator stats %+v: want 0 executions, at least 1 cache hit", health.Stats)
	}
	if stored := getBytes(t, base+"/api/v1/campaigns/"+fid+"/result"); !bytes.Equal(stored, crashed) {
		t.Error("the stored result differs from the pre-crash result bytes")
	}
	noTemps(t, dataDir, "after the final restart")
}

// startCoordinator boots a durable remote-only coordinator on addr. The
// bind is retried briefly: a SIGKILLed predecessor's socket can take a beat
// to release.
func startCoordinator(t *testing.T, addr, dataDir, name string) *daemon {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		d := start(t, name, "-addr", addr, "-jobs", "1", "-shards", fmt.Sprint(crashShards),
			"-shard-local-workers=-1", "-shard-lease-ttl", "5s", "-data-dir", dataDir)
		if base, ok := d.address(t); ok {
			readyz(t, base)
			return d
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never bound %s", name, addr)
	return nil
}

// awaitShard returns once the journal holds a shard completion more than
// when the cycle began. It fails at once if the campaign has already
// ended, and after 60 s of no growth.
func awaitShard(t *testing.T, base, id, journal string, cycle int) {
	t.Helper()
	before := countShardRecords(journal)
	for deadline := time.Now().Add(time.Minute); countShardRecords(journal) <= before; time.Sleep(25 * time.Millisecond) {
		var st struct {
			State string `json:"state"`
		}
		getJSON(t, base+"/api/v1/campaigns/"+id, &st)
		switch {
		case st.State == "done":
			t.Fatalf("campaign finished before kill cycle %d: too short for this build", cycle)
		case st.State == "failed" || st.State == "cancelled":
			t.Fatalf("campaign %s before kill cycle %d", st.State, cycle)
		case time.Now().After(deadline):
			t.Fatalf("cycle %d: journal recorded no shard completion beyond %d within 1m", cycle, before)
		}
	}
}

// countShardRecords counts durably journaled shard completions. It greps
// the raw journal on purpose: the gate must observe what is on disk, not
// what the coordinator about to die claims in memory.
func countShardRecords(journal string) int {
	b, _ := os.ReadFile(journal) // none yet is zero
	return bytes.Count(b, []byte(`"type":"shard_completed"`))
}

// noTemps fails the test if any file written to be renamed into place is
// left anywhere under the data directory.
func noTemps(t *testing.T, dataDir, when string) {
	t.Helper()
	filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			t.Errorf("%s: temp file %s in the data directory", when, path)
		}
		return nil // an entry gone mid-walk is no temp file
	})
}

// daemon is one child process running main.
type daemon struct {
	cmd    *exec.Cmd
	stdout addrWriter
	stderr bytes.Buffer
	exited chan struct{} // closed once the process is reaped
}

// addrWriter is a daemon's stdout: it keeps every byte and hands the
// address of the first "listening on" line to addr. (It embeds no
// bytes.Buffer: io.Copy would call the buffer's ReadFrom and never Write.)
type addrWriter struct {
	buf  bytes.Buffer
	addr chan string
	sent bool
}

func (w *addrWriter) Write(p []byte) (int, error) {
	w.buf.Write(p)
	if _, rest, ok := strings.Cut(w.buf.String(), "listening on "); ok && !w.sent {
		if line, _, ok := strings.Cut(rest, "\n"); ok {
			w.sent = true
			w.addr <- line
		}
	}
	return len(p), nil
}

// start runs main with args in a child process. When the test ends the
// child is SIGKILLed and reaped, and its stderr goes into the test log if
// the test failed.
func start(t *testing.T, name string, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: exec.Command(os.Args[0], args...), exited: make(chan struct{})}
	d.stdout.addr = make(chan string, 1)
	d.cmd.Env = append(os.Environ(), daemonEnv+"=1")
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		d.kill()
		if t.Failed() {
			t.Logf("%s (%s) stderr:\n%s", name, strings.Join(args, " "), d.stderr.Bytes())
		}
	})
	return d
}

// kill SIGKILLs the daemon — no shutdown hooks, no warning — and reaps it.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.exited
}

// address waits for the base URL the daemon prints once its socket is
// bound; false if it exits first.
func (d *daemon) address(t *testing.T) (string, bool) {
	t.Helper()
	select {
	case addr := <-d.stdout.addr:
		return addr, true
	case <-d.exited:
		return "", false
	case <-time.After(10 * time.Second):
		t.Fatal("the daemon reported no address within 10s")
		return "", false
	}
}

// exitCode waits for the daemon to exit by itself and returns its status.
func exitCode(t *testing.T, d *daemon) int {
	t.Helper()
	select {
	case <-d.exited:
		return d.cmd.ProcessState.ExitCode()
	case <-time.After(10 * time.Second):
		t.Fatal("the daemon did not exit within 10s")
		return -1
	}
}

// boot starts a daemon and returns it with its base URL.
func boot(t *testing.T, name string, args ...string) (*daemon, string) {
	t.Helper()
	d := start(t, name, args...)
	base, ok := d.address(t)
	if !ok {
		t.Fatalf("%s exited (%v) without reporting its address", name, d.cmd.ProcessState)
	}
	readyz(t, base)
	return d, base
}

// readyz holds a fresh daemon's first /readyz answer to 200: main binds its
// port only once the data dir is open and the journal replayed, so no probe
// ever sees a daemon still recovering.
func readyz(t *testing.T, base string) {
	t.Helper()
	resp, err := client.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first GET /readyz: HTTP %d, want 200", resp.StatusCode)
	}
}

// outcomeBytes is the reference a daemon's result must equal:
// jobs.EncodeOutcome of jobs.Execute of the same request, in this process.
func outcomeBytes(t *testing.T, req jobs.Request) []byte {
	t.Helper()
	out, err := jobs.Execute(context.Background(), req, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := jobs.EncodeOutcome(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// submit posts a campaign and returns its job id. The answer must be HTTP
// want: 201 for a new job, 200 for one coalesced, recovered or served from
// the store; what names the submission in the failure otherwise.
func submit(t *testing.T, base string, req jobs.Request, want int, what string) string {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := client.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	var st struct {
		ID string `json:"id"`
	}
	if err == nil {
		err = json.Unmarshal(b, &st)
	}
	if err != nil || resp.StatusCode != want {
		t.Fatalf("%s: HTTP %d %q (%v), want %d", what, resp.StatusCode, b, err, want)
	}
	return st.ID
}

// streamDone reads a job's NDJSON progress stream until the server closes
// it; the last snapshot must say "done".
func streamDone(t *testing.T, base, id, what string) {
	t.Helper()
	b := getBytes(t, base+"/api/v1/campaigns/"+id+"/stream")
	lines := bytes.Split(bytes.TrimSpace(b), []byte("\n"))
	var last struct {
		State string `json:"state"`
	}
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil || last.State != "done" {
		t.Fatalf("%s ended %q (%v) after %d snapshots", what, last.State, err, len(lines))
	}
}

func getBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d %q (%v)", url, resp.StatusCode, b, err)
	}
	return b
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	if err := json.Unmarshal(getBytes(t, url), v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
}

// metrics is a flat view of one /metrics scrape: full series name, labels
// included, to value.
type metrics map[string]float64

// scrapeMetrics fetches and parses GET /metrics. The parser accepts exactly
// the text exposition subset the daemon emits: comment lines and
// `series value` pairs.
func scrapeMetrics(t *testing.T, base string) metrics {
	t.Helper()
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("GET /metrics: HTTP %d, content type %q", resp.StatusCode, ct)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	m := metrics{}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var v float64
		i := strings.LastIndexByte(line, ' ')
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); i < 0 || err != nil {
			t.Fatalf("unparseable metrics line %q", line)
		}
		m[line[:i]] = v
	}
	return m
}

// checkMetrics holds the observability contract over a scrape taken while
// serveCampaign was in flight and one taken after it finished.
func checkMetrics(t *testing.T, mid, final metrics) {
	t.Helper()
	// One series per instrumented layer: engine, jobs, shards, store, HTTP.
	for _, name := range []string{
		"engine_experiments_total", "engine_golden_pass_cycles_total",
		"jobs_submitted_total", "jobs_executed_total", "jobs_queue_depth",
		"shards_campaigns_total", "shards_completed_total", "shards_inflight",
		"store_results", "store_journal_records",
	} {
		if _, ok := final[name]; !ok {
			t.Errorf("metrics: series %s missing", name)
		}
	}
	for _, prefix := range []string{
		"http_requests_total{", "http_request_seconds_bucket{", "jobs_job_duration_seconds_count",
		"jobs_campaign_stage_seconds_count{", "store_journal_fsync_seconds_count",
	} {
		found := false
		for name := range final {
			found = found || strings.HasPrefix(name, prefix)
		}
		if !found {
			t.Errorf("metrics: no series matching %s", prefix)
		}
	}
	if got, was := final["engine_experiments_total"], mid["engine_experiments_total"]; got < was || got <= 0 {
		t.Errorf("engine_experiments_total read %v mid-campaign, then %v: want it monotone and positive", was, got)
	}
	// The queue drained, two submissions ran one campaign into one stored
	// result, and the submission that created a job was answered after an
	// fsync.
	for _, s := range []struct {
		name     string
		min, max float64
	}{
		{"jobs_queue_depth", 0, 0},
		{"jobs_submitted_total", 2, 2},
		{"jobs_executed_total", 1, 1},
		{"shards_campaigns_total", 1, 1},
		{"shards_completed_total", 1, math.Inf(1)},
		{"store_results", 1, 1},
		{"store_journal_fsync_seconds_count", 1, math.Inf(1)},
	} {
		if v := final[s.name]; v < s.min || v > s.max {
			t.Errorf("%s = %v after all jobs finished, want %v to %v", s.name, v, s.min, s.max)
		}
	}
}
