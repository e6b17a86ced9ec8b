package main

import (
	"bufio"
	"bytes"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
)

// serveCampaign is the one small campaign the smoke submits: excerptA's
// golden run is under a thousand cycles, so the whole round trip is
// sub-second.
var serveCampaign = campaign{workload: "excerptA", target: "iu", models: "sa1", nodes: 6, seed: 1}

// overlapCampaign is submitted after it on the warm daemon: the same seed
// draws the same six nodes first, so it runs on the runner serveCampaign left
// and finds their stuck-at-1 verdicts in its table, beside eighteen nodes and
// two models the runner has not resolved.
var overlapCampaign = campaign{workload: "excerptA", target: "iu", models: "sa0,sa1,open", nodes: 24, seed: 1}

// serve is the hermetic end-to-end smoke test behind `make serve-smoke`:
// it builds faultserverd and faultcampaign, boots the
// daemon (sharded and durable, so every subsystem is live) on an
// ephemeral port, submits one small campaign over HTTP twice, streams
// its NDJSON progress, and asserts the service contract — the duplicate
// submission coalesces or cache-hits (one engine execution), both
// result payloads are byte-identical, and they match `faultcampaign
// -json` byte for byte for the same spec. A second campaign whose node
// sample overlaps the first then runs on the warm daemon — its runner
// already holds some of the verdicts — and must match a cold `faultcampaign
// -json` of the same spec byte for byte too.
//
// It also scrapes GET /metrics twice — once mid-campaign, once after —
// and asserts the observability contract: the exposition parses, core
// series from every layer (engine, jobs, shards, store, HTTP) exist,
// the experiment counter is monotone, and the queue depth returns to
// zero once the campaign finishes.
func serve() error {
	dir, bins, err := setup("servesmoke", "faultserverd", "faultcampaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	serverBin, cliBin := bins[0], bins[1]

	// Boot the daemon on an ephemeral port and scrape the bound address.
	// Sharded + durable so the shard-pool and store metric families are
	// exercised too; neither changes result bytes.
	srv, base, err := boot("/readyz", serverBin, "-addr", "127.0.0.1:0", "-jobs", "1",
		"-shards", "2", "-data-dir", filepath.Join(dir, "data"))
	if err != nil {
		return err
	}
	defer terminate(srv)
	log.Printf("server at %s", base)

	// Submit the campaign twice.
	id1, err := submit(base, serveCampaign, http.StatusCreated, "first submission")
	if err != nil {
		return err
	}
	id2, err := submit(base, serveCampaign, http.StatusOK, "second submission (coalesced or cached)")
	if err != nil {
		return err
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
	last, lines, err := streamDone(base, id1, "job")
	if err != nil {
		return err
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
	cliOut, err := runCLI(cliBin, serveCampaign.cli()...)
	if err != nil {
		return err
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
		len(final), final["engine_experiments_total"])

	// The overlapping campaign: answered in part from what the first left on
	// the runner, and byte-identical to a process that never ran the first.
	id3, err := submit(base, overlapCampaign, http.StatusCreated, "overlapping submission")
	if err != nil {
		return err
	}
	if _, _, err := streamDone(base, id3, "overlapping job"); err != nil {
		return err
	}
	warm, err := getBytes(base + "/api/v1/campaigns/" + id3 + "/result")
	if err != nil {
		return err
	}
	cold, err := runCLI(cliBin, overlapCampaign.cli()...)
	if err != nil {
		return err
	}
	if !bytes.Equal(warm, cold) {
		return fmt.Errorf("overlapping campaign on the warm daemon and cold faultcampaign -json diverge:\n--- server\n%s\n--- cli\n%s", warm, cold)
	}
	after, err := scrapeMetrics(base)
	if err != nil {
		return fmt.Errorf("metrics after the overlapping campaign: %w", err)
	}
	known := after[`engine_verdicts_proven_total{proof="known"}`]
	if known == 0 {
		return fmt.Errorf("the overlapping campaign found no verdict the first had left on its runner")
	}
	log.Printf("overlapping campaign on the warm runner == cold faultcampaign -json (%d bytes, %v verdicts known, %v kept)",
		len(warm), known, after["engine_verdict_table_entries"])
	return nil
}

// metrics is a flat view of one /metrics scrape: full series name
// (labels included) -> value.
type metrics map[string]float64

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
		if _, ok := final[name]; !ok {
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
	if got, was := final["engine_experiments_total"], mid["engine_experiments_total"]; got < was {
		return fmt.Errorf("engine_experiments_total went backwards: %v then %v", was, got)
	} else if got <= 0 {
		return fmt.Errorf("engine_experiments_total = %v after an executed campaign", got)
	}
	// After all jobs finished: the queue drained, two submissions ran one
	// campaign into one stored result, and the one submission that created a
	// job was answered after an fsync.
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
			return fmt.Errorf("%s = %v after all jobs finished, want %v to %v", s.name, v, s.min, s.max)
		}
	}
	return nil
}
