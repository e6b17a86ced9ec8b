package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// crashCampaign is sized so three kill/restart cycles fit comfortably
// inside it: 240 experiments (120 nodes x sa0,sa1) at 100 kernel
// iterations, split 24 ways so the journal grows shard by shard. No
// epsilon: adaptive early stopping is order-sensitive, and this test is
// about byte-identity across crashes.
var crashCampaign = campaign{workload: "rspeed", iters: 100, target: "iu", models: "sa0,sa1", nodes: 120, seed: 1}

const killCycles = 3

// logger writes the smoke's own structured lines. The subprocesses it
// boots log structured too (they inherit stderr), so a failing run's
// transcript — above all the kill-schedule seed needed to replay it —
// survives machine parsing instead of interleaving raw printf noise.
var logger = slog.New(slog.NewTextHandler(os.Stderr, nil)).With("prog", "crashsmoke")

// crash is the hermetic crash-recovery smoke test behind `make
// crash-smoke`: it builds faultserverd and faultcampaign, boots a
// durable coordinator (-data-dir) in remote-only shard mode plus three
// worker processes, submits a 240-experiment campaign, and then
// SIGKILLs the coordinator — no shutdown hooks, no warning — at three
// journal-growth-gated points (one cycle also SIGKILLs a worker),
// restarting it on the same address each time. The workers are never
// told anything happened; they ride out the dead coordinator on their
// jittered lease backoff, get 410 Gone for leases the restarted
// process has never heard of, and pull fresh leases from the recovered
// campaign.
//
// The assertions are the durability contract end to end:
//
//   - every restarted coordinator resumes the in-flight campaign from
//     its journal (resubmitting the spec coalesces, HTTP 200 — never a
//     fresh 201);
//   - the merged outcome after three crashes is byte-identical to
//     `faultcampaign -json` run undisturbed and unsharded;
//   - a final SIGKILL+restart serves a resubmission of the same spec
//     straight from the on-disk result store: state "done" immediately,
//     zero engine executions on the fresh process, same result bytes;
//   - no restart leaves a temp file anywhere in the data directory: the
//     result store writes none, and a journal compaction's is renamed
//     into place or removed before the coordinator reports ready.
//
// Kill points are randomized; the seed is logged and can be pinned with
// -seed to replay a failing schedule.
func crash(args []string) error {
	fs := flag.NewFlagSet("smoke crash", flag.ExitOnError)
	seed := fs.Int64("seed", 0, "kill-schedule seed (0 = derive from the clock)")
	fs.Parse(args)
	if *seed == 0 {
		*seed = time.Now().UnixNano()
	}
	logger.Info("kill-schedule seed chosen", "seed", *seed,
		"replay", fmt.Sprintf("-seed %d", *seed))
	rng := rand.New(rand.NewSource(*seed))

	dir, bins, err := setup("crashsmoke", "faultserverd", "faultcampaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	serverBin, cliBin := bins[0], bins[1]

	dataDir := filepath.Join(dir, "data")
	journal := filepath.Join(dataDir, "journal.ndjson")

	// The coordinator must come back on the same address after each
	// SIGKILL so the workers' configured URL stays valid: reserve a free
	// port once and reuse it for every boot.
	addr, err := reservePort()
	if err != nil {
		return err
	}
	base := "http://" + addr

	coord, err := startCoordinator(serverBin, addr, dataDir)
	if err != nil {
		return err
	}
	defer func() {
		if coord != nil && coord.Process != nil {
			coord.Process.Kill()
			coord.Wait()
		}
	}()

	// Three worker processes with a tight backoff cap so they re-attach
	// within ~1s of a coordinator resurrection.
	workers := make(map[int]*exec.Cmd)
	defer func() {
		for _, w := range workers {
			terminate(w)
		}
	}()
	start := func(i int) error {
		w, err := startWorker(serverBin, base, fmt.Sprintf("w%d", i),
			"-campaign-workers", "1", "-worker-backoff-max", "500ms")
		if err == nil {
			workers[i] = w
		}
		return err
	}
	for i := 1; i <= 3; i++ {
		if err := start(i); err != nil {
			return err
		}
	}
	logger.Info("workers pulling shards", "workers", 3, "coordinator", base)

	id, err := submit(base, crashCampaign, http.StatusCreated, "first submission")
	if err != nil {
		return err
	}
	logger.Info("campaign submitted", "job", id, "experiments", 240, "shards", 24)

	// Kill/restart cycles, each gated on durable progress: wait until the
	// journal has recorded at least one more completed shard than when
	// this coordinator incarnation started, linger a random beat, then
	// SIGKILL. Cycle 2 also SIGKILLs a worker mid-flight.
	for cycle := 1; cycle <= killCycles; cycle++ {
		before := countShardRecords(journal)
		if !poll(60*time.Second, 25*time.Millisecond, func() bool { return countShardRecords(journal) > before }) {
			return fmt.Errorf("cycle %d: journal recorded no shard completion beyond %d within 60s", cycle, before)
		}
		delay := time.Duration(rng.Intn(250)) * time.Millisecond
		time.Sleep(delay)

		if cycle == 2 {
			w := workers[2]
			w.Process.Kill() // SIGKILL, no cleanup
			w.Wait()
			delete(workers, 2)
			logger.Info("SIGKILLed worker", "cycle", cycle, "worker", "w2")
			if err := start(4); err != nil {
				return err
			}
		}

		coord.Process.Kill() // SIGKILL, no cleanup
		coord.Wait()
		completed := countShardRecords(journal)
		logger.Info("SIGKILLed coordinator", "cycle", cycle, "linger", delay, "shards_journaled", completed)

		if coord, err = startCoordinator(serverBin, addr, dataDir); err != nil {
			return fmt.Errorf("cycle %d restart: %w", cycle, err)
		}

		// The restarted coordinator must already know the campaign: a
		// resubmission coalesces onto the recovered job (or, if the last
		// shard squeaked in pre-kill, hits the on-disk result store) —
		// either way HTTP 200, never a fresh 201.
		if id, err = submit(base, crashCampaign, http.StatusOK, "resubmit (recovered or stored)"); err != nil {
			return fmt.Errorf("cycle %d: %w", cycle, err)
		}
		if tmps := temps(dataDir); len(tmps) != 0 {
			return fmt.Errorf("cycle %d: temp files in the data directory after a restart: %v", cycle, tmps)
		}
		logger.Info("coordinator resurrected, campaign recovered", "cycle", cycle, "job", id)
	}

	// Let the survivors finish the campaign.
	var st struct {
		State string `json:"state"`
	}
	if !poll(120*time.Second, 100*time.Millisecond, func() bool {
		return getJSON(base+"/api/v1/campaigns/"+id, &st) == nil && (st.State == "done" || st.State == "failed" || st.State == "cancelled")
	}) || st.State != "done" {
		return fmt.Errorf("campaign not done within 2m0s: state %q", st.State)
	}
	crashed, err := getBytes(base + "/api/v1/campaigns/" + id + "/result")
	if err != nil {
		return err
	}
	logger.Info("campaign finished", "kill_cycles", killCycles, "result_bytes", len(crashed))

	// The thrice-crashed merged outcome must be byte-identical to the
	// undisturbed, unsharded CLI run of the same spec.
	undisturbed, err := runCLI(cliBin, crashCampaign.cli()...)
	if err != nil {
		return err
	}
	if !bytes.Equal(crashed, undisturbed) {
		return fmt.Errorf("crash-recovered result and undisturbed faultcampaign -json diverge:\n--- crashed\n%s\n--- undisturbed\n%s", crashed, undisturbed)
	}
	logger.Info("crash-recovered result matches undisturbed unsharded CLI")

	// Final act: kill the coordinator once more and prove the finished
	// result outlives the process — the resubmission must be answered
	// from the on-disk store with zero engine executions.
	coord.Process.Kill()
	coord.Wait()
	if coord, err = startCoordinator(serverBin, addr, dataDir); err != nil {
		return fmt.Errorf("final restart: %w", err)
	}
	fid, err := submit(base, crashCampaign, http.StatusOK, "post-crash resubmission (stored result)")
	if err != nil {
		return err
	}
	if err := getJSON(base+"/api/v1/campaigns/"+fid, &st); err != nil {
		return err
	}
	if st.State != "done" {
		return fmt.Errorf("post-crash resubmission is %q, want done immediately from the store", st.State)
	}
	var health struct {
		Stats struct {
			Executed  int `json:"executed"`
			CacheHits int `json:"cache_hits"`
		} `json:"stats"`
	}
	if err := getJSON(base+"/api/v1/healthz", &health); err != nil {
		return err
	}
	if health.Stats.Executed != 0 || health.Stats.CacheHits < 1 {
		return fmt.Errorf("fresh coordinator stats %+v: want 0 executions, >=1 cache hit", health.Stats)
	}
	stored, err := getBytes(base + "/api/v1/campaigns/" + fid + "/result")
	if err != nil {
		return err
	}
	if !bytes.Equal(stored, crashed) {
		return fmt.Errorf("stored result differs from the pre-crash result bytes")
	}
	if tmps := temps(dataDir); len(tmps) != 0 {
		return fmt.Errorf("temp files in the data directory after the final restart: %v", tmps)
	}
	logger.Info("final restart served the result from the store", "executions", 0, "byte_identical", true)
	return nil
}

// startCoordinator boots a durable remote-only coordinator on addr and
// waits until /readyz reports recovery is complete. The bind is retried
// briefly: a SIGKILLed predecessor's socket can take a beat to release.
func startCoordinator(bin, addr, dataDir string) (*exec.Cmd, error) {
	for attempt := 0; attempt < 20; attempt++ {
		cmd, _, err := boot("/readyz", bin, "-addr", addr, "-jobs", "1",
			"-shards", "24", "-shard-local-workers=-1", "-shard-lease-ttl", "5s",
			"-data-dir", dataDir)
		if !errors.Is(err, errNoAddress) { // else the bind failed (address still in TIME_WAIT teardown)
			return cmd, err
		}
		time.Sleep(100 * time.Millisecond)
	}
	return nil, fmt.Errorf("coordinator on %s never bound", addr)
}

// reservePort grabs a free loopback port and releases it for the
// coordinator to claim. The tiny reuse race is acceptable in a smoke
// test; startCoordinator retries the bind regardless.
func reservePort() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr, nil
}

// temps lists the temp files anywhere under the data directory: files
// written to be renamed into place, which a restarted coordinator must not
// leave behind.
func temps(dataDir string) []string {
	var out []string
	filepath.WalkDir(dataDir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && strings.HasPrefix(d.Name(), ".tmp-") {
			out = append(out, path)
		}
		return nil // an entry gone mid-walk is no temp file
	})
	return out
}

// countShardRecords counts durably journaled shard completions. It
// greps the raw journal on purpose: the gate must observe what is on
// disk, not what the (about-to-die) coordinator claims in memory.
func countShardRecords(journal string) int {
	b, err := os.ReadFile(journal)
	if err != nil {
		return 0
	}
	return bytes.Count(b, []byte(`"type":"shard_completed"`))
}
