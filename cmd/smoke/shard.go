package main

import (
	"bytes"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/exec"
	"strings"
)

// shardCampaign is the Figure-4-sized campaign: rspeed at 2 kernel
// iterations (the figure's first configuration), stuck-at-1 over a 60-node
// IU sample — 60 experiments split 6 ways across 3 worker processes.
var shardCampaign = campaign{workload: "rspeed", iters: 2, target: "iu", models: "sa1", nodes: 60, seed: 1}

// transientCampaign is the transient twin: both transient models (SEU
// bit-flips and 2-cycle SET pulses) over a 30-node sample of the same
// workload — 60 experiments whose injection cycles are sampled per
// experiment, so byte-identity across the distributed path proves the
// schedule is keyed by absolute experiment index, not worker order.
var transientCampaign = campaign{workload: "rspeed", iters: 2, target: "iu", models: "seu,set", pulse: 2, nodes: 30, seed: 1}

// shard is the hermetic end-to-end smoke test behind `make shard-smoke`:
// it builds faultserverd and faultcampaign, boots a
// coordinator daemon in remote-only shard mode plus three worker
// processes, runs a Figure-4-sized campaign (rspeed) through the
// distributed shard path, and asserts the scaling contract — the merged
// result is byte-identical to `faultcampaign -json` run unsharded, the
// in-process sharded CLI (3 workers, one binary) matches too, on both
// injection targets, and the coordinator accounted for every shard. A
// second campaign repeats the exercise with the transient models
// (seu/set), whose per-experiment injection-cycle sampling must survive
// arbitrary shard-to-worker assignment byte-for-byte.
func shard() error {
	dir, bins, err := setup("shardsmoke", "faultserverd", "faultcampaign")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	serverBin, cliBin := bins[0], bins[1]

	// Coordinator: 6 shards per campaign, no local shard execution — all
	// work must flow over the HTTP shard surface to the workers.
	srv, base, err := boot("/api/v1/healthz", serverBin, "-addr", "127.0.0.1:0", "-jobs", "1",
		"-shards", "6", "-shard-local-workers=-1", "-shard-lease-ttl", "30s")
	if err != nil {
		return err
	}
	defer terminate(srv)
	log.Printf("coordinator at %s", base)

	// Three worker processes, each with modest intra-shard parallelism.
	var workers []*exec.Cmd
	defer func() {
		for _, w := range workers {
			terminate(w)
		}
	}()
	for i := 1; i <= 3; i++ {
		w, err := startWorker(serverBin, base, fmt.Sprintf("w%d", i), "-campaign-workers", "2")
		if err != nil {
			return err
		}
		workers = append(workers, w)
	}
	log.Printf("3 workers pulling shards")

	// Submit the campaign and stream progress until terminal.
	id, err := submit(base, shardCampaign, http.StatusCreated, "submission")
	if err != nil {
		return err
	}
	_, snapshots, err := streamDone(base, id, "job")
	if err != nil {
		return err
	}
	log.Printf("sharded campaign done after %d progress snapshots", snapshots)

	// The distributed result must be byte-identical to the unsharded CLI.
	serverRes, err := getBytes(base + "/api/v1/campaigns/" + id + "/result")
	if err != nil {
		return err
	}
	unsharded, err := runCLI(cliBin, shardCampaign.cli()...)
	if err != nil {
		return err
	}
	if !bytes.Equal(serverRes, unsharded) {
		return fmt.Errorf("distributed sharded result and unsharded faultcampaign -json diverge:\n--- server\n%s\n--- cli\n%s", serverRes, unsharded)
	}
	log.Printf("coordinator+workers == unsharded CLI (%d bytes)", len(serverRes))

	// The in-process sharded CLI (3 workers, one binary) matches too —
	// on the IU target and on CMEM.
	for _, target := range []string{"iu", "cmem"} {
		c, want := shardCampaign, unsharded
		if c.target = target; target == "cmem" {
			if want, err = runCLI(cliBin, c.cli()...); err != nil {
				return err
			}
		}
		sharded, err := runCLI(cliBin, c.cli("-shards", "3")...)
		if err != nil {
			return err
		}
		if !bytes.Equal(want, sharded) {
			return fmt.Errorf("target %s: -shards 3 diverged from unsharded -json", target)
		}
		log.Printf("target %s: -shards 3 == unsharded (%d bytes)", target, len(want))
	}

	// Transient campaign through the same distributed path: SEU bit-flips
	// and SET pulses, whose per-experiment injection cycles must come out
	// identical no matter which worker executes which shard.
	tid, err := submit(base, transientCampaign, http.StatusCreated, "transient submission")
	if err != nil {
		return err
	}
	if _, _, err := streamDone(base, tid, "transient job"); err != nil {
		return err
	}
	tServer, err := getBytes(base + "/api/v1/campaigns/" + tid + "/result")
	if err != nil {
		return err
	}
	tUnsharded, err := runCLI(cliBin, transientCampaign.cli()...)
	if err != nil {
		return err
	}
	if !bytes.Equal(tServer, tUnsharded) {
		return fmt.Errorf("distributed transient result and unsharded faultcampaign -json diverge:\n--- server\n%s\n--- cli\n%s", tServer, tUnsharded)
	}
	tSharded, err := runCLI(cliBin, transientCampaign.cli("-shards", "3")...)
	if err != nil {
		return err
	}
	if !bytes.Equal(tUnsharded, tSharded) {
		return fmt.Errorf("transient -shards 3 diverged from unsharded -json")
	}
	if !bytes.Contains(tUnsharded, []byte(`"at_cycle"`)) {
		return fmt.Errorf("transient outcome carries no sampled injection cycles")
	}
	log.Printf("transient seu/set campaign: coordinator+workers == unsharded == -shards 3 (%d bytes)", len(tUnsharded))

	// The coordinator must have planned 6 shards per campaign and merged
	// all of them, all executed by remote workers.
	var health struct {
		Shards struct {
			Planned   int            `json:"planned"`
			Completed int            `json:"completed"`
			Workers   map[string]int `json:"workers"`
		} `json:"shards"`
	}
	if err := getJSON(base+"/api/v1/healthz", &health); err != nil {
		return err
	}
	if health.Shards.Planned != 12 || health.Shards.Completed != 12 {
		return fmt.Errorf("shard stats %+v: want 12 planned, 12 completed", health.Shards)
	}
	total := 0
	for w, n := range health.Shards.Workers {
		if !strings.HasPrefix(w, "w") {
			return fmt.Errorf("unexpected worker %q in stats (local execution leaked?)", w)
		}
		total += n
	}
	if total < 12 {
		return fmt.Errorf("workers leased %d shards, want >= 12", total)
	}
	log.Printf("shard accounting: %d leases across %d workers", total, len(health.Shards.Workers))
	return nil
}
