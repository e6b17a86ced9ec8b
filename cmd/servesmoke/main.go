// Command servesmoke is the hermetic end-to-end smoke test behind `make
// serve-smoke`: it builds faultserverd and faultcampaign, boots the
// daemon (sharded and durable, so every subsystem is live) on an
// ephemeral port, submits one small campaign over HTTP twice, streams
// its NDJSON progress, and asserts the service contract — the duplicate
// submission coalesces or cache-hits (one engine execution), both
// result payloads are byte-identical, and they match `faultcampaign
// -json` byte for byte for the same spec.
//
// It also scrapes GET /metrics twice — once mid-campaign, once after —
// and asserts the observability contract: the exposition parses, core
// series from every layer (engine, jobs, shards, store, HTTP) exist,
// the experiment counter is monotone, and the queue depth returns to
// zero once the campaign finishes.
//
// It needs only the go toolchain and a TCP loopback; no curl or jq.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// spec is the one small campaign the smoke submits: excerptA's golden run
// is under a thousand cycles, so the whole round trip is sub-second.
var spec = map[string]interface{}{
	"workload":           "excerptA",
	"target":             "iu",
	"models":             []string{"sa1"},
	"nodes":              6,
	"seed":               1,
	"inject_at_fraction": 0.3,
}

var cliArgs = []string{
	"-w", "excerptA", "-target", "iu", "-model", "sa1",
	"-nodes", "6", "-seed", "1", "-inject-frac", "0.3", "-json",
	"-iters", "0",
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("servesmoke: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("servesmoke: OK")
}

func run() error {
	dir, err := os.MkdirTemp("", "servesmoke")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	serverBin := filepath.Join(dir, "faultserverd")
	cliBin := filepath.Join(dir, "faultcampaign")
	for bin, pkg := range map[string]string{
		serverBin: "./cmd/faultserverd",
		cliBin:    "./cmd/faultcampaign",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", pkg, err)
		}
	}

	// Boot the daemon on an ephemeral port and scrape the bound address.
	// Sharded + durable so the shard-pool and store metric families are
	// exercised too; neither changes result bytes.
	srv := exec.Command(serverBin, "-addr", "127.0.0.1:0", "-jobs", "1",
		"-shards", "2", "-data-dir", filepath.Join(dir, "data"))
	srv.Stderr = os.Stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		return err
	}
	if err := srv.Start(); err != nil {
		return err
	}
	defer func() {
		srv.Process.Signal(syscall.SIGTERM)
		srv.Wait()
	}()
	var base string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
			base = strings.TrimSpace(sc.Text()[i+len("listening on "):])
			break
		}
	}
	if base == "" {
		return fmt.Errorf("server never reported its address")
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	log.Printf("server at %s", base)
	if err := waitReady(base); err != nil {
		return err
	}

	// Submit the campaign twice.
	body, _ := json.Marshal(spec)
	id1, code1, err := submit(base, body)
	if err != nil {
		return err
	}
	if code1 != http.StatusCreated {
		return fmt.Errorf("first submission: HTTP %d, want 201", code1)
	}
	id2, code2, err := submit(base, body)
	if err != nil {
		return err
	}
	if code2 != http.StatusOK {
		return fmt.Errorf("second submission: HTTP %d, want 200 (coalesced or cached)", code2)
	}
	if id2 != id1 {
		return fmt.Errorf("second submission got job %s, want %s", id2, id1)
	}

	// First metrics scrape, while the campaign is (at most) in flight:
	// the exposition must already parse and carry the HTTP series.
	midMetrics, err := scrapeMetrics(base)
	if err != nil {
		return fmt.Errorf("mid-campaign metrics: %w", err)
	}

	// Stream progress until the job is terminal.
	sresp, err := http.Get(base + "/api/v1/campaigns/" + id1 + "/stream")
	if err != nil {
		return err
	}
	defer sresp.Body.Close()
	var lastLine []byte
	lines := 0
	ssc := bufio.NewScanner(sresp.Body)
	for ssc.Scan() {
		lastLine = append(lastLine[:0], ssc.Bytes()...)
		lines++
	}
	var last struct {
		State string  `json:"state"`
		Done  int     `json:"done"`
		Total int     `json:"total"`
		Pf    float64 `json:"pf"`
	}
	if err := json.Unmarshal(lastLine, &last); err != nil {
		return fmt.Errorf("bad NDJSON tail %q: %w", lastLine, err)
	}
	if last.State != "done" {
		return fmt.Errorf("job ended %q after %d snapshots", last.State, lines)
	}
	log.Printf("streamed %d progress snapshots, final Pf %.4f over %d experiments",
		lines, last.Pf, last.Total)

	// The engine must have run exactly once for the two submissions.
	var health struct {
		Stats struct {
			Executed  int `json:"executed"`
			Submitted int `json:"submitted"`
		} `json:"stats"`
	}
	if err := getJSON(base+"/api/v1/healthz", &health); err != nil {
		return err
	}
	if health.Stats.Executed != 1 || health.Stats.Submitted != 2 {
		return fmt.Errorf("stats %+v: want 2 submissions, 1 execution", health.Stats)
	}

	// Both result fetches must be byte-identical...
	res1, err := getBytes(base + "/api/v1/campaigns/" + id1 + "/result")
	if err != nil {
		return err
	}
	res2, err := getBytes(base + "/api/v1/campaigns/" + id1 + "/result")
	if err != nil {
		return err
	}
	if !bytes.Equal(res1, res2) {
		return fmt.Errorf("result payloads differ between fetches")
	}

	// ...and byte-identical to `faultcampaign -json` for the same spec.
	cli := exec.Command(cliBin, cliArgs...)
	cli.Stderr = os.Stderr
	cliOut, err := cli.Output()
	if err != nil {
		return fmt.Errorf("faultcampaign -json: %w", err)
	}
	if !bytes.Equal(res1, cliOut) {
		return fmt.Errorf("server result and faultcampaign -json diverge:\n--- server\n%s\n--- cli\n%s", res1, cliOut)
	}
	log.Printf("server result == faultcampaign -json (%d bytes)", len(res1))

	// Final metrics scrape: every layer must have reported, the
	// experiment counter must be monotone across the two scrapes, and the
	// queue must have drained.
	final, err := scrapeMetrics(base)
	if err != nil {
		return fmt.Errorf("final metrics: %w", err)
	}
	if err := checkMetrics(midMetrics, final); err != nil {
		return err
	}
	log.Printf("metrics OK: %d series, %v experiments executed",
		len(final), final.value("engine_experiments_total"))
	return nil
}

// metrics is a flat view of one /metrics scrape: full series name
// (labels included) -> value.
type metrics map[string]float64

// value returns the exact (label-free) series value, NaN-safe zero when
// absent — callers assert presence separately via has/hasPrefix.
func (m metrics) value(name string) float64 { return m[name] }

func (m metrics) has(name string) bool { _, ok := m[name]; return ok }

// hasPrefix reports whether any series of the family exists (labelled
// families render as name{...}).
func (m metrics) hasPrefix(name string) bool {
	for k := range m {
		if strings.HasPrefix(k, name) {
			return true
		}
	}
	return false
}

// scrapeMetrics fetches and parses GET /metrics. The parser accepts
// exactly the text exposition subset the daemon emits: comment lines
// and `series value` pairs.
func scrapeMetrics(base string) (metrics, error) {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		return nil, fmt.Errorf("GET /metrics: content type %q", ct)
	}
	m := metrics{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("unparseable metrics line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			return nil, fmt.Errorf("unparseable value in %q: %w", line, err)
		}
		m[line[:i]] = v
	}
	return m, sc.Err()
}

// checkMetrics asserts the observability contract over the two scrapes.
func checkMetrics(mid, final metrics) error {
	// One series per instrumented layer must exist after the campaign.
	for _, name := range []string{
		"engine_experiments_total",
		"engine_golden_pass_cycles_total",
		"jobs_submitted_total",
		"jobs_executed_total",
		"jobs_queue_depth",
		"shards_campaigns_total",
		"shards_completed_total",
		"shards_inflight",
		"store_results",
		"store_journal_records",
	} {
		if !final.has(name) {
			return fmt.Errorf("metrics: series %s missing", name)
		}
	}
	for _, prefix := range []string{
		"http_requests_total{",
		"http_request_seconds_bucket{",
		"jobs_job_duration_seconds_count",
		"jobs_campaign_stage_seconds_count{",
		"store_journal_fsync_seconds_count",
	} {
		if !final.hasPrefix(prefix) {
			return fmt.Errorf("metrics: no series matching %s", prefix)
		}
	}
	if got, was := final.value("engine_experiments_total"), mid.value("engine_experiments_total"); got < was {
		return fmt.Errorf("engine_experiments_total went backwards: %v then %v", was, got)
	} else if got <= 0 {
		return fmt.Errorf("engine_experiments_total = %v after an executed campaign", got)
	}
	if v := final.value("jobs_queue_depth"); v != 0 {
		return fmt.Errorf("jobs_queue_depth = %v after all jobs finished, want 0", v)
	}
	if v := final.value("jobs_submitted_total"); v != 2 {
		return fmt.Errorf("jobs_submitted_total = %v, want 2", v)
	}
	if v := final.value("jobs_executed_total"); v != 1 {
		return fmt.Errorf("jobs_executed_total = %v, want 1", v)
	}
	if v := final.value("shards_campaigns_total"); v != 1 {
		return fmt.Errorf("shards_campaigns_total = %v, want 1", v)
	}
	if v := final.value("shards_completed_total"); v < 1 {
		return fmt.Errorf("shards_completed_total = %v, want >= 1", v)
	}
	if v := final.value("store_results"); v != 1 {
		return fmt.Errorf("store_results = %v, want 1", v)
	}
	// The one submission that created a job was answered after an fsync.
	if v := final.value("store_journal_fsync_seconds_count"); v < 1 {
		return fmt.Errorf("store_journal_fsync_seconds_count = %v after a journaled submission, want >= 1", v)
	}
	return nil
}

// waitReady polls the readiness probe, not liveness: /readyz answers 503
// until the daemon has finished opening its data dir and replaying any
// journal, so a durable server is only used once recovery is complete.
func waitReady(base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("server never became ready")
}

func submit(base string, body []byte) (id string, code int, err error) {
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return "", resp.StatusCode, fmt.Errorf("submit response %q: %w", b, err)
	}
	return st.ID, resp.StatusCode, nil
}

func getBytes(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

func getJSON(url string, v interface{}) error {
	b, err := getBytes(url)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
