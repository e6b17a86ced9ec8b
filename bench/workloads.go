package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/core"
	"repro/internal/iss"
	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/workloads"
)

// Campaign sizes. Each is chosen so that one campaign takes roughly
// 60-90 ms on the 2-core sandbox: the 20 s window then holds well over
// two hundred closed-loop ops, enough for p90 to have ten samples beyond it,
// while one campaign is still hundreds of experiments (several full
// 64-lane batches), not the 48 the historical bench_test.go times.
const (
	permNodes      = 256 // x3 models = 768 experiments
	transientNodes = 128 // x2 models = 256 experiments
	hybridNodes    = 48  // x3 models = 144 experiments, each on the ISS and ~1 in 10 on RTL too
	smokeNodes     = 24  // -smoke and the self-tests
	serviceShards  = 4
	// serviceSeedOffset keeps service_durable's seeds disjoint from
	// engine_perm's at the same base seed.
	serviceSeedOffset = 1 << 20
	// referenceExps is how many leading experiments of the first engine_*
	// campaign are re-run on the from-reset scalar reference engine.
	referenceExps = 48
	// hybridRefs is how many traced hybrid campaigns get a pure-RTL
	// reference for the accuracy figures.
	hybridRefs = 8
	// kernelIterations follows the paper's 4.2 and the repo's own
	// benchmarks and CLI default: two kernel iterations are enough for
	// permanent faults and for a fault-free timing run.
	kernelIterations = 2
	// runBudget bounds a fault-free run, in cycles or instructions.
	runBudget = 400_000_000
)

// env is what a run hands its target: the seed, the meter ops are
// measured with, the observers (both nil in an untraced run) and where
// scratch directories go.
type env struct {
	seed    int64
	smoke   bool
	tmpRoot string
	meter   *meter
	reg     *obs.Registry     // attached to every layer in a traced run
	stages  *obs.HistogramVec // jobs_campaign_stage_seconds in reg
	tr      *tracer
}

func (e *env) nodes(full int) int {
	if e.smoke {
		return smokeNodes
	}
	return full
}

// request returns campaign i of a workload: always a fresh seed, so the
// content-addressed cache never answers a timed op.
func (e *env) request(workload string, i int) jobs.Request {
	seed := e.seed + int64(i)
	switch workload {
	case "engine_transient":
		return jobs.Request{Workload: "rspeed", Iterations: kernelIterations, Target: "iu", Models: []string{"seu", "set"},
			PulseCycles: 2, Nodes: e.nodes(transientNodes), Seed: seed, InjectAtFraction: 0.5}
	case "hybrid_audit":
		return jobs.Request{Workload: "puwmod", Iterations: kernelIterations, Target: "iu", Engine: "hybrid", RTLAudit: 0.1,
			Nodes: e.nodes(hybridNodes), Seed: seed}
	case "service_durable":
		seed += serviceSeedOffset
		fallthrough
	default: // engine_perm
		return jobs.Request{Workload: "rspeed", Iterations: kernelIterations, Target: "iu", Models: []string{"sa0", "sa1", "open"},
			Nodes: e.nodes(permNodes), Seed: seed, InjectAtFraction: 0.5}
	}
}

// spanID is the identifier the spans of one campaign share: its content
// address, shortened. Untraced runs skip the hashing.
func (e *env) spanID(req jobs.Request) string {
	if e.tr == nil {
		return ""
	}
	key, err := req.Key()
	if err != nil {
		return "invalid"
	}
	return key[:12]
}

// execute runs one campaign in process, the way `faultcampaign -json`
// and the service's workers do. In a traced run it carries the program's
// own stage tracer and lays the stage timings out as child spans of the
// call (the stages run back to back, so their starts are reconstructed
// from their durations).
func (e *env) execute(req jobs.Request, parent int) (*jobs.Outcome, error) {
	ctx := context.Background()
	var st *obs.Tracer
	if e.tr != nil {
		st = obs.NewTracer(e.stages)
		ctx = obs.WithTracer(ctx, st)
	}
	id := e.spanID(req)
	sp := e.tr.begin("jobs.Execute", id, parent)
	out, err := jobs.ExecuteObs(ctx, req, procs, nil, e.reg)
	e.tr.end(sp)
	if e.tr != nil {
		at := e.tr.spans[sp].Start
		for _, s := range st.Spans() {
			d := int64(s.Seconds * 1e9)
			e.tr.add("jobs.stage."+s.Stage, id, sp, at, at+d)
			at += d
		}
	}
	return out, err
}

func encodeOutcome(out *jobs.Outcome) ([]byte, error) {
	var buf bytes.Buffer
	err := jobs.EncodeOutcome(&buf, out)
	return buf.Bytes(), err
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// opResult is what one timed op reports back to the loop: the
// experiments it completed and what the caller-observed call cost.
type opResult struct {
	exps int
	cost
}

// target is one workload's way of doing ops. setup builds everything up
// to and including one warm-up op; op runs timed operation i under the
// given parent span and measures nothing but the call a user would make;
// after does, unmeasured, what belongs to op i but not to its cost: the
// per-op output checks and the service's cache-hit resubmissions; verify
// checks outputs once the window has closed and returns one line per
// failure; first returns the bytes the golden pin covers; close releases
// what setup acquired.
type target interface {
	setup() error
	op(i, parent int) (opResult, error)
	after(i int) error
	verify() []string
	first() []byte
	close()
}

// warmUp is the untimed op that ends every set-up.
func warmUp(t target) error {
	if _, err := t.op(-1, -1); err != nil {
		return err
	}
	return t.after(-1)
}

func newTarget(name string, e *env) target {
	switch name {
	case "service_durable":
		return &serviceTarget{env: e}
	case "rawsim":
		return &rawsimTarget{env: e}
	default:
		return &inprocTarget{env: e, name: name}
	}
}

// checkOutcome is the per-op sanity check every campaign gets: the
// outcome echoes the request it answered and is complete.
func checkOutcome(req jobs.Request, out *jobs.Outcome) error {
	n, err := req.Normalize()
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(out.Request, n) {
		return fmt.Errorf("outcome answers request %+v, want %+v", out.Request, n)
	}
	if want := req.Nodes * len(n.Models); out.Injections != want || len(out.Experiments) != want {
		return fmt.Errorf("outcome has %d injections, %d experiments, want %d", out.Injections, len(out.Experiments), want)
	}
	if h := out.Hybrid; h != nil && h.ISSExperiments+h.RTLExperiments != out.Injections {
		return fmt.Errorf("hybrid partition %d+%d != %d injections", h.ISSExperiments, h.RTLExperiments, out.Injections)
	}
	return nil
}

// ---------------------------------------------------------------------------
// engine_perm, engine_transient, hybrid_audit: jobs.Execute in process.

type inprocTarget struct {
	env      *env
	name     string
	req      jobs.Request  // of the latest op
	out      *jobs.Outcome // of the latest op
	firstReq jobs.Request
	firstOut *jobs.Outcome
	// hybrid holds the first hybridRefs traced hybrid outcomes for the
	// accuracy figures.
	hybrid []*jobs.Outcome
}

func (t *inprocTarget) setup() error { return warmUp(t) }

func (t *inprocTarget) op(i, parent int) (opResult, error) {
	t.req = t.env.request(t.name, i)
	c, err := t.env.meter.measure(func() (err error) {
		t.out, err = t.env.execute(t.req, parent)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	return opResult{exps: t.out.Injections, cost: c}, nil
}

func (t *inprocTarget) after(i int) error {
	if err := checkOutcome(t.req, t.out); err != nil {
		return err
	}
	if i == 0 {
		t.firstReq, t.firstOut = t.req, t.out
	}
	if t.name == "hybrid_audit" && t.env.tr != nil && i >= 0 && len(t.hybrid) < hybridRefs {
		t.hybrid = append(t.hybrid, t.out)
	}
	return nil
}

func (t *inprocTarget) first() []byte {
	if t.firstOut == nil {
		return nil
	}
	b, _ := encodeOutcome(t.firstOut) // an in-memory buffer cannot fail
	return b
}

// verify re-runs the head of the first engine_* campaign on the
// from-reset scalar engine (no batching, no checkpoint, one core per
// experiment): the batched, forked, pooled engine must classify every
// experiment identically.
func (t *inprocTarget) verify() []string {
	if t.firstOut == nil || t.name == "hybrid_audit" {
		return nil
	}
	ref := t.firstReq
	ref.NoBatch, ref.NoCheckpoint = true, true
	n := min(referenceExps, t.firstOut.Injections)
	so, err := jobs.ExecuteShard(context.Background(), ref, 0, n, procs, nil)
	if err != nil {
		return []string{fmt.Sprintf("%s: scalar reference: %v", t.name, err)}
	}
	if !reflect.DeepEqual(so.Experiments, t.firstOut.Experiments[:n]) {
		return []string{fmt.Sprintf("%s: first %d experiments differ from the from-reset scalar reference", t.name, n)}
	}
	return nil
}

func (t *inprocTarget) close() {}

// hybridAccuracy compares the kept hybrid outcomes against pure-RTL runs
// of the same requests: mean |Pf difference| in percentage points, and
// the share whose corrected interval contains the RTL Pf.
func (t *inprocTarget) hybridAccuracy() (errPP, cover float64, err error) {
	if len(t.hybrid) == 0 {
		return 0, 0, nil
	}
	for _, h := range t.hybrid {
		ref := h.Request
		ref.Engine, ref.RTLAudit, ref.Confidence = "", 0, 0
		sp := t.env.tr.begin("reference.rtl", t.env.spanID(ref), -1)
		rtl, err := jobs.ExecuteObs(context.Background(), ref, procs, nil, t.env.reg)
		t.env.tr.end(sp)
		if err != nil {
			return 0, 0, err
		}
		d := h.Pf - rtl.Pf
		if d < 0 {
			d = -d
		}
		errPP += 100 * d
		if h.Hybrid.CorrectedPfLow <= rtl.Pf && rtl.Pf <= h.Hybrid.CorrectedPfHigh {
			cover++
		}
	}
	n := float64(len(t.hybrid))
	return errPP / n, cover / n, nil
}

// ---------------------------------------------------------------------------
// service_durable: HTTP submit -> shards -> journal + store -> result.

type serviceTarget struct {
	env  *env
	dir  string
	mgr  *jobs.Manager
	srv  *httptest.Server
	http *http.Client

	// result is the body the latest op fetched; kept[i] is that of op i
	// for the first few ops, checked byte for byte against in-process
	// execution once the window closes.
	result []byte
	kept   [][]byte
	// cachedUS times the duplicate submissions (submit -> result of an
	// already finished campaign); they are not ops.
	cachedUS []float64
	// firstEventMS is how long each progress stream took to deliver its
	// first snapshot.
	firstEventMS []float64
}

// keptResults is how many service results are checked against in-process
// execution; resubmitEvery is the cache-hit cadence. serviceMaxJobs bounds
// what the manager keeps in memory: small enough that retention reaches
// its steady state within the first seconds, so that peak RSS does not
// grow with however many ops the window happens to hold — and that the
// resubmissions, which reach further back, are answered from the on-disk
// store, as after a restart.
const (
	keptResults    = 3
	resubmitEvery  = 4
	serviceMaxJobs = 64
)

func (t *serviceTarget) setup() error {
	dir, err := os.MkdirTemp(t.env.tmpRoot, "service-")
	if err != nil {
		return err
	}
	t.dir = dir
	t.mgr, _, err = jobs.OpenManager(jobs.ManagerOptions{
		DataDir:         dir,
		Shards:          serviceShards,
		CampaignWorkers: procs,
		MaxJobs:         serviceMaxJobs,
		Obs:             t.env.reg,
	})
	if err != nil {
		return err
	}
	var opts []server.Option
	if t.env.reg != nil {
		opts = append(opts, server.WithObs(t.env.reg))
	}
	t.srv = httptest.NewServer(server.New(t.mgr, opts...).Handler())
	t.http = t.srv.Client()
	return warmUp(t)
}

// stop shuts the server and the manager down, leaving the data directory
// as a stopped daemon would.
func (t *serviceTarget) stop() {
	if t.srv != nil {
		t.srv.Close()
		t.srv = nil
	}
	if t.mgr != nil {
		t.mgr.Close()
		t.mgr = nil
	}
}

func (t *serviceTarget) close() {
	t.stop()
	if t.dir != "" {
		os.RemoveAll(t.dir)
	}
}

// get fetches a path and returns the body of a 200 answer.
func (t *serviceTarget) get(path string) ([]byte, error) {
	resp, err := t.http.Get(t.srv.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

// submit posts a request and returns the job to follow and whether the
// submission created it (201) or was answered from cache (200).
func (t *serviceTarget) submit(req jobs.Request) (st jobs.Status, fresh bool, err error) {
	body, err := json.Marshal(req)
	if err != nil {
		return st, false, err
	}
	resp, err := t.http.Post(t.srv.URL+"/api/v1/campaigns", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body) // best-effort detail for the error
		return st, false, fmt.Errorf("POST campaigns: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, resp.StatusCode == http.StatusCreated, err
}

// campaign drives one fresh campaign the way a client does: submit,
// follow the progress stream to the terminal snapshot, fetch the result.
func (t *serviceTarget) campaign(req jobs.Request, parent int) (result []byte, exps int, err error) {
	tr, id := t.env.tr, t.env.spanID(req)

	sp := tr.begin("server.submit", id, parent)
	st, fresh, err := t.submit(req)
	tr.end(sp)
	submitted := sinceStart()
	if err != nil {
		return nil, 0, err
	}
	if !fresh {
		return nil, 0, fmt.Errorf("submission of a fresh seed was answered from cache (job %s)", st.ID)
	}

	sp = tr.begin("server.stream", id, parent)
	streamStart := sinceStart()
	resp, err := t.http.Get(t.srv.URL + "/api/v1/campaigns/" + st.ID + "/stream")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET stream: %s", resp.Status)
	}
	var last jobs.Progress
	firstEvent, firstRunning := int64(0), int64(0)
	lines := bufio.NewScanner(resp.Body)
	for lines.Scan() {
		if firstEvent == 0 {
			firstEvent = sinceStart()
		}
		if err := json.Unmarshal(lines.Bytes(), &last); err != nil {
			return nil, 0, fmt.Errorf("stream line: %w", err)
		}
		if firstRunning == 0 && last.State != jobs.StateQueued {
			firstRunning = sinceStart()
		}
	}
	tr.end(sp)
	if err := lines.Err(); err != nil {
		return nil, 0, err
	}
	t.firstEventMS = append(t.firstEventMS, float64(firstEvent-streamStart)/1e6)
	// Submit answered to first snapshot past "queued": the queue plus a
	// worker picking the job up, as the watching client sees it.
	tr.add("jobs.queue_wait", id, parent, submitted, firstRunning)
	if last.State != jobs.StateDone || last.Done != last.Total {
		return nil, 0, fmt.Errorf("job %s ended %s at %d/%d", st.ID, last.State, last.Done, last.Total)
	}

	sp = tr.begin("server.result", id, parent)
	result, err = t.get("/api/v1/campaigns/" + st.ID + "/result")
	tr.end(sp)
	if err != nil {
		return nil, 0, err
	}
	if want := req.Nodes * len(req.Models); last.Done != want {
		return nil, 0, fmt.Errorf("job %s ran %d experiments, want %d", st.ID, last.Done, want)
	}
	if tr != nil {
		sp = tr.begin("server.status", id, parent)
		_, err = t.get("/api/v1/campaigns/" + st.ID)
		tr.end(sp)
	}
	return result, last.Done, err
}

func (t *serviceTarget) op(i, parent int) (opResult, error) {
	req := t.env.request("service_durable", i)
	exps := 0
	c, err := t.env.meter.measure(func() (err error) {
		t.result, exps, err = t.campaign(req, parent)
		return err
	})
	if err != nil {
		return opResult{}, err
	}
	return opResult{exps: exps, cost: c}, nil
}

// after keeps the first few results for verify and, every fourth op,
// takes the cache-hit path: outside the op, so that neither its time nor
// its CPU and allocations count towards a fresh campaign's.
func (t *serviceTarget) after(i int) error {
	if i >= 0 && len(t.kept) < keptResults {
		t.kept = append(t.kept, t.result)
	}
	if i >= 0 && i%resubmitEvery == resubmitEvery-1 {
		return t.resubmit(t.env.request("service_durable", i/2))
	}
	return nil
}

// resubmit sends a request the service has already answered: it must
// come back done, from cache, with a result.
func (t *serviceTarget) resubmit(req jobs.Request) error {
	sp := t.env.tr.begin("server.cached", t.env.spanID(req), -1)
	defer t.env.tr.end(sp)
	t0 := time.Now()
	st, fresh, err := t.submit(req)
	if err != nil {
		return err
	}
	if fresh || st.State != jobs.StateDone {
		return fmt.Errorf("duplicate submission was not a cache hit (fresh=%v, state %s)", fresh, st.State)
	}
	if _, err := t.get("/api/v1/campaigns/" + st.ID + "/result"); err != nil {
		return err
	}
	t.cachedUS = append(t.cachedUS, float64(time.Since(t0))/1e3)
	return nil
}

func (t *serviceTarget) first() []byte {
	if len(t.kept) == 0 {
		return nil
	}
	return t.kept[0]
}

// verify requires the bytes the service returned to equal in-process
// execution plus the canonical encoding, for the same requests.
func (t *serviceTarget) verify() []string {
	var fails []string
	for i, got := range t.kept {
		out, err := t.env.execute(t.env.request("service_durable", i), -1)
		if err != nil {
			fails = append(fails, fmt.Sprintf("service_durable: in-process reference %d: %v", i, err))
			continue
		}
		want, _ := encodeOutcome(out) // an in-memory buffer cannot fail
		if !bytes.Equal(got, want) {
			fails = append(fails, fmt.Sprintf("service_durable: result %d differs from in-process execution (%d vs %d bytes)", i, len(got), len(want)))
		}
	}
	return fails
}

// ---------------------------------------------------------------------------
// rawsim: the same program to exit on the RTL core and on the ISS.

type rawsimTarget struct {
	env  *env
	prog *core.Program

	pairs          []rawPair // of the latest op
	parent         int       // its span
	cycles, icount uint64    // of every run; simulated, so they never vary
	out            []uint32
	rtlMS, issMS   []float64
}

func (t *rawsimTarget) setup() error {
	// The seed picks the input dataset, so different seeds simulate
	// different data through the same kernel.
	w, err := workloads.Build("puwmod", workloads.Config{
		Iterations: kernelIterations,
		Dataset:    int(uint64(t.env.seed) % 1000),
	})
	if err != nil {
		return err
	}
	t.prog = w.Program
	t.pairs = make([]rawPair, rawsimPairs)
	if t.env.smoke {
		t.pairs = t.pairs[:2*procs]
	}
	return warmUp(t)
}

// rawPair is one program run on each simulator, with the instants (ns
// since process start) at which each step ended.
type rawPair struct {
	begin, rtlBuilt, rtlRan, issBuilt, issRan int64
	cycles, icount                            uint64
	out                                       []uint32
	err                                       error
}

func (t *rawsimTarget) pair() (p rawPair) {
	p.begin = sinceStart()
	rtl := core.NewRTL(t.prog)
	p.rtlBuilt = sinceStart()
	st := rtl.Run(runBudget)
	p.rtlRan = sinceStart()
	if st != iss.StatusExited {
		p.err = fmt.Errorf("rawsim: RTL run ended %v", st)
		return p
	}
	cpu := core.NewISS(t.prog)
	p.issBuilt = sinceStart()
	st = cpu.Run(runBudget)
	p.issRan = sinceStart()
	if st != iss.StatusExited {
		p.err = fmt.Errorf("rawsim: ISS run ended %v", st)
		return p
	}
	// The paper's correlation premise: both simulators run the same
	// program to the same off-core outputs.
	if !reflect.DeepEqual(rtl.Bus.Out(), cpu.Bus.Out()) || rtl.Bus.ExitCode() != cpu.Bus.ExitCode() {
		p.err = fmt.Errorf("rawsim: RTL and ISS outputs differ")
	} else if rtl.Icount != cpu.Icount {
		p.err = fmt.Errorf("rawsim: RTL executed %d instructions, ISS %d", rtl.Icount, cpu.Icount)
	}
	p.cycles, p.icount, p.out = rtl.Cycles(), cpu.Icount, rtl.Bus.Out()
	return p
}

// onAllProcs runs f on procs goroutines and waits for them.
func onAllProcs(f func(g int)) {
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			f(g)
		}(g)
	}
	wg.Wait()
}

// rawsimPairs is how many run pairs one rawsim op makes: about 30 ms of
// work, the size of a campaign. One worker per core draws pairs from a
// shared counter, as a correlation sweep over many programs would and as
// a campaign shares out its experiments. (With one pair per core per op,
// the 1 ms op took either 1x or 2x, whichever way the host's two vCPUs
// happened to be scheduled, in bursts of a few hundred ops: its median
// flipped between the two modes from run to run, 13-20 % interquartile,
// and no calibration sample is as short as that.)
const rawsimPairs = 64

func (t *rawsimTarget) op(i, parent int) (opResult, error) {
	t.parent = parent
	var next atomic.Int32
	c, _ := t.env.meter.measure(func() error { // the pairs carry their own errors
		onAllProcs(func(int) {
			for k := int(next.Add(1)) - 1; k < len(t.pairs); k = int(next.Add(1)) - 1 {
				t.pairs[k] = t.pair()
			}
		})
		return nil
	})
	return opResult{exps: 2 * len(t.pairs), cost: c}, nil
}

func (t *rawsimTarget) after(i int) error {
	for _, p := range t.pairs {
		if p.err != nil {
			return p.err
		}
		if i < 0 {
			t.cycles, t.icount, t.out = p.cycles, p.icount, p.out
			continue
		}
		if p.cycles != t.cycles || p.icount != t.icount {
			return fmt.Errorf("rawsim: run %d took %d cycles / %d instructions, warm-up %d / %d",
				i, p.cycles, p.icount, t.cycles, t.icount)
		}
		if t.env.tr == nil {
			continue // only the traced run reports the simulators head to head
		}
		t.rtlMS = append(t.rtlMS, float64(p.rtlRan-p.rtlBuilt)/1e6)
		t.issMS = append(t.issMS, float64(p.issRan-p.issBuilt)/1e6)
		t.env.tr.add("leon3.new", "", t.parent, p.begin, p.rtlBuilt)
		t.env.tr.add("leon3.run", "", t.parent, p.rtlBuilt, p.rtlRan)
		t.env.tr.add("iss.new", "", t.parent, p.rtlRan, p.issBuilt)
		t.env.tr.add("iss.run", "", t.parent, p.issBuilt, p.issRan)
	}
	return nil
}

func (t *rawsimTarget) first() []byte {
	return []byte(fmt.Sprintf("cycles=%d icount=%d out=%08x\n", t.cycles, t.icount, t.out))
}

func (t *rawsimTarget) verify() []string { return nil }
func (t *rawsimTarget) close()           {}
