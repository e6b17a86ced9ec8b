package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setup makes the smoke's scratch directory and builds the named cmd/
// packages of this checkout into it, returning the binaries in order. The
// caller removes dir.
func setup(name string, cmds ...string) (dir string, bins []string, err error) {
	if dir, err = os.MkdirTemp("", name); err != nil {
		return "", nil, err
	}
	for _, c := range cmds {
		bin := filepath.Join(dir, c)
		build := exec.Command("go", "build", "-o", bin, "./cmd/"+c)
		build.Stderr = os.Stderr
		if err := build.Run(); err != nil {
			os.RemoveAll(dir)
			return "", nil, fmt.Errorf("building ./cmd/%s: %w", c, err)
		}
		bins = append(bins, bin)
	}
	return dir, bins, nil
}

// errNoAddress is boot's error for a daemon that closed stdout without
// reporting an address: its bind failed.
var errNoAddress = errors.New("daemon never reported its address")

// boot starts a daemon, scrapes the address it reports on stdout and polls
// probe there until it answers 200. On /readyz that is readiness, not
// liveness: 503 until the daemon has finished opening its data dir and
// replaying any journal, so a durable server is only used once recovery is
// complete. Stdout is drained from then on; on an error the process is gone.
func boot(probe, bin string, args ...string) (cmd *exec.Cmd, base string, err error) {
	cmd = exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if i := strings.Index(sc.Text(), "listening on "); i >= 0 {
			base = strings.TrimSpace(sc.Text()[i+len("listening on "):])
			break
		}
	}
	go io.Copy(io.Discard, stdout) // keep the pipe drained
	switch {
	case base == "":
		err = errNoAddress
	case !poll(10*time.Second, 25*time.Millisecond, func() bool { _, err := getBytes(base + probe); return err == nil }):
		err = fmt.Errorf("daemon at %s never answered %s", base, probe)
	default:
		return cmd, base, nil
	}
	cmd.Process.Kill()
	cmd.Wait()
	return nil, "", err
}

// startWorker starts a shard worker process pulling from the coordinator at
// base.
func startWorker(bin, base, id string, args ...string) (*exec.Cmd, error) {
	w := exec.Command(bin, append([]string{"-worker", "-coordinator", base, "-worker-id", id}, args...)...)
	w.Stderr = os.Stderr
	if err := w.Start(); err != nil {
		return nil, err
	}
	return w, nil
}

// terminate asks a daemon to shut down and reaps it.
func terminate(cmd *exec.Cmd) {
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}

// poll calls ok every interval until it reports true; false after timeout.
func poll(timeout, every time.Duration, ok func() bool) bool {
	for deadline := time.Now().Add(timeout); time.Now().Before(deadline); time.Sleep(every) {
		if ok() {
			return true
		}
	}
	return false
}

// campaign is one smoke campaign, spelled once: spec is its HTTP request
// body, cli its `faultcampaign -json` arguments. Both name the same
// content address, which the byte-identity checks lean on. Every smoke
// campaign injects at 0.3 of the golden run.
type campaign struct {
	workload string
	iters    int
	target   string
	models   string // comma-separated
	nodes    int
	seed     int
}

func (c campaign) spec() map[string]interface{} {
	return map[string]interface{}{
		"workload": c.workload, "iterations": c.iters, "target": c.target,
		"models": strings.Split(c.models, ","), "nodes": c.nodes, "seed": c.seed,
		"inject_at_fraction": 0.3,
	}
}

func (c campaign) cli() []string {
	return []string{
		"-w", c.workload, "-iters", strconv.Itoa(c.iters), "-target", c.target, "-models", c.models,
		"-nodes", strconv.Itoa(c.nodes), "-seed", strconv.Itoa(c.seed), "-inject-frac", "0.3", "-json",
	}
}

// runCLI runs a built CLI once and returns its stdout.
func runCLI(bin string, args ...string) ([]byte, error) {
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", filepath.Base(bin), strings.Join(args, " "), err)
	}
	return out, nil
}

// submit posts a campaign and returns its job id. The answer must be
// HTTP want — 201 for a new job, 200 for one coalesced, recovered or served
// from the store; what names the submission in the error otherwise.
func submit(base string, c campaign, want int, what string) (id string, err error) {
	body, _ := json.Marshal(c.spec())
	resp, err := http.Post(base+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var st struct {
		ID string `json:"id"`
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return "", fmt.Errorf("submit response %q: %w", b, err)
	}
	if resp.StatusCode != want {
		return "", fmt.Errorf("%s: HTTP %d, want %d", what, resp.StatusCode, want)
	}
	return st.ID, nil
}

// snapshot is one line of a job's NDJSON progress stream.
type snapshot struct {
	State string  `json:"state"`
	Total int     `json:"total"`
	Pf    float64 `json:"pf"`
}

// streamDone reads a job's progress stream until the server closes it and
// returns the last snapshot, which must say "done", and the snapshot count;
// what names the job in the error otherwise.
func streamDone(base, id, what string) (last snapshot, lines int, err error) {
	resp, err := http.Get(base + "/api/v1/campaigns/" + id + "/stream")
	if err != nil {
		return last, 0, err
	}
	defer resp.Body.Close()
	var lastLine []byte
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lastLine = append(lastLine[:0], sc.Bytes()...)
		lines++
	}
	if err := json.Unmarshal(lastLine, &last); err != nil {
		return last, lines, fmt.Errorf("bad NDJSON tail %q: %w", lastLine, err)
	}
	if last.State != "done" {
		return last, lines, fmt.Errorf("%s ended %q after %d snapshots", what, last.State, lines)
	}
	return last, lines, nil
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
