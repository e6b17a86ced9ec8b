package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/iss"
	"repro/internal/jobs"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/stats"
	"repro/internal/store"
	"repro/internal/workloads"
)

// The per-layer metrics of a traced run come from three places: the
// spans the benchmark recorded around its calls into each layer during
// the ops, the program's own counters read from the registry as a delta
// over the ops (so warm-up, references and probes never leak in), and
// isolated probes that time one public function of one layer at a time,
// on the workload's own program and request shape. Engines are only ever
// obtained through campaign.RunnerFor / campaign.ISSRunnerFor.

// histMean returns sum/count of one label set of a histogram family over the
// interval between two scrapes, or 0 when nothing was observed.
func histMean(s0, s1 map[string]float64, family, labels string) float64 {
	n := s1[family+"_count"+labels] - s0[family+"_count"+labels]
	if n == 0 {
		return 0
	}
	return (s1[family+"_sum"+labels] - s0[family+"_sum"+labels]) / n
}

// layerMetrics fills in every per-layer metric. s0 and s1 are registry
// scrapes taken just before the first and just after the last op.
func layerMetrics(res *runResult, cfg runConfig, e *env, tgt target, s0, s1 map[string]float64) error {
	for _, d := range perLayer {
		res.set(d.Name, 0) // a layer the workload bypasses reads 0
		res.Notes[d.Name] = "moves " + d.Moves
	}
	ops := float64(res.Record.Ops)
	delta := func(series string) float64 { return s1[series] - s0[series] }
	res.set("obs.traced_exp_per_s", res.Raw["exp_per_s"].Value)
	res.set("host.slowdown", res.Raw["host_slowdown"].Value)

	// fault: the batch-lane funnel and golden-pass work of the ops.
	planned, free := delta("engine_batch_lanes_planned_total"), delta("engine_batch_lanes_free_total")
	res.set("fault.lanes_planned", planned)
	res.set("fault.lanes_activated", delta("engine_batch_lanes_activated_total"))
	res.set("fault.lanes_free", free)
	res.set("fault.materializations", delta("engine_snapshot_materializations_total"))
	res.set("fault.scalar_fallbacks", delta("engine_scalar_fallbacks_total"))
	res.set("fault.golden_pass_cycles", delta("engine_golden_pass_cycles_total"))
	if planned > 0 {
		res.set("fault.free_lane_ratio", free/planned)
	}
	if secs := delta("engine_golden_pass_seconds_total"); secs > 0 {
		res.set("fault.golden_pass_cycles_per_s", delta("engine_golden_pass_cycles_total")/secs)
	}

	// jobs: the program's own stage tracer, mean per campaign.
	const stageHist = "jobs_campaign_stage_seconds"
	for _, stage := range []string{"golden", "plan", "execute", "assemble"} {
		res.set("jobs.stage_"+stage+"_ms", 1e3*histMean(s0, s1, stageHist, `{stage="`+stage+`"}`))
	}
	executeMS := 1e3 * histMean(s0, s1, "jobs_job_duration_seconds", "") // the service's executor
	if d := e.tr.opChildDurations("jobs.Execute", time.Millisecond); len(d) > 0 {
		executeMS = stats.Mean(d) // in-process workloads: the call itself
	}
	if executeMS > 0 {
		res.set("jobs.execute_self_ms", executeMS-res.Metrics["jobs.stage_execute_ms"].Value)
	}
	res.set("jobs.shards_leased", delta("shards_leased_total"))
	res.set("jobs.shards_requeued", delta("shards_requeued_total"))

	switch t := tgt.(type) {
	case *inprocTarget:
		errPP, cover, err := t.hybridAccuracy()
		if err != nil {
			return fmt.Errorf("hybrid reference: %w", err)
		}
		res.set("jobs.hybrid_pf_err_pp", errPP)
		res.set("jobs.hybrid_ci_cover_frac", cover)
	case *serviceTarget:
		res.set("store.fsyncs_per_campaign", delta("store_journal_fsyncs_total")/ops)
		res.set("store.journal_records_per_campaign", delta("store_journal_records")/ops)
		res.set("store.journal_bytes_per_campaign", delta("store_journal_size_bytes")/ops)
		res.set("server.http_requests", sumSeries(s1, "http_requests_total", "")-sumSeries(s0, "http_requests_total", ""))
		res.set("server.http_5xx", sumSeries(s1, "http_requests_total", `code="5`)-sumSeries(s0, "http_requests_total", `code="5`))
		res.set("server.submit_rtt_us", median(e.tr.opChildDurations("server.submit", time.Microsecond)))
		res.set("server.result_get_us", median(e.tr.opChildDurations("server.result", time.Microsecond)))
		res.set("server.status_get_us", median(e.tr.opChildDurations("server.status", time.Microsecond)))
		res.set("server.stream_first_event_ms", median(t.firstEventMS))
		res.set("server.cached_rtt_us", median(t.cachedUS))
		res.set("jobs.queue_wait_ms", median(e.tr.opChildDurations("jobs.queue_wait", time.Millisecond)))
		// The service tax: the same requests, same process, straight
		// through jobs.Execute.
		var inprocMS []float64
		for i := 0; i < res.Record.Ops; i++ {
			t0 := time.Now()
			if _, err := e.execute(e.request("service_durable", i), -1); err != nil {
				return fmt.Errorf("in-process reference: %w", err)
			}
			inprocMS = append(inprocMS, float64(time.Since(t0))/1e6)
		}
		res.set("jobs.service_over_engine", median(e.tr.durations("op", time.Millisecond))/median(inprocMS))
	case *rawsimTarget:
		rtlMS, issMS := median(t.rtlMS), median(t.issMS)
		res.set("core.sim_cycles_per_s", float64(t.cycles)/rtlMS*1e3)
		res.set("core.iss_inst_per_s", float64(t.icount)/issMS*1e3)
		res.set("core.rtl_iss_slowdown", rtlMS/issMS)
	}

	if err := probes(res, cfg, e); err != nil {
		return fmt.Errorf("probes: %w", err)
	}
	if t, ok := tgt.(*serviceTarget); ok {
		// Reopen the journal the ops left behind, as a restart would.
		journal := filepath.Join(t.dir, "journal.ndjson")
		t.stop()
		t0 := time.Now()
		j, _, err := store.OpenJournal(journal)
		if err != nil {
			return err
		}
		res.set("store.open_replay_ms", float64(time.Since(t0))/1e6)
		j.Close()
	}
	return nil
}

// opChildDurations returns the durations of the named spans that are
// direct children of an op span: the calls made for timed ops, not for
// warm-up, verification or references.
func (t *tracer) opChildDurations(name string, unit time.Duration) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Parent >= 0 && t.spans[s.Parent].Name == "op" {
			out = append(out, float64(s.End-s.Start)/float64(unit))
		}
	}
	return out
}

// ---------------------------------------------------------------------------
// Isolated probes.

// probeBudget bounds one probe (a smoke run spends a tenth of it);
// probeBatch is the least time one timed batch of calls lasts, so that
// the clock's resolution does not show.
const (
	probeBudget = 25 * time.Millisecond
	probeBatch  = 200 * time.Microsecond
)

// perCall returns the median time of one call of f, in the given unit,
// over batches that together last about the budget.
func perCall(budget, unit time.Duration, f func()) float64 {
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(t0) >= probeBatch || n >= 1<<20 {
			break
		}
		n *= 4
	}
	var batches []float64
	for start := time.Now(); len(batches) < 3 || (time.Since(start) < budget && len(batches) < 101); {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(t0))/float64(n)/float64(unit))
	}
	return median(batches)
}

// timed returns how long one call of f takes, in the given unit.
func timed(unit time.Duration, f func()) float64 {
	t0 := time.Now()
	f()
	return float64(time.Since(t0)) / float64(unit)
}

// probeRequest is the request shape the probes use: the workload's own,
// or for rawsim (which has none) a permanent campaign on its program.
func probeRequest(e *env, workload string) jobs.Request {
	if workload == "rawsim" {
		return jobs.Request{Workload: "puwmod", Target: "iu", Models: []string{"sa0", "sa1", "open"},
			Iterations: kernelIterations, Nodes: e.nodes(permNodes), Seed: e.seed - 2, InjectAtFraction: 0.5}
	}
	return e.request(workload, -2)
}

// prober runs the isolated probes of one traced run. The probes of one
// layer share a method; what a later layer needs from an earlier one
// (the experiment count, a real outcome payload) rides on the struct.
type prober struct {
	res  *runResult
	cfg  runConfig
	e    *env
	req  jobs.Request // normalized probe request
	wcfg workloads.Config
	// A smoke run checks that every probe works, not what it reads.
	budget  time.Duration
	samples int

	nExps   int    // experiments of one probe campaign
	payload []byte // canonical encoding of a real outcome
}

func probes(res *runResult, cfg runConfig, e *env) error {
	req, err := probeRequest(e, cfg.workload).Normalize()
	if err != nil {
		return err
	}
	p := &prober{res: res, cfg: cfg, e: e, req: req, budget: probeBudget, samples: 48,
		wcfg: workloads.Config{Iterations: req.Iterations, Dataset: req.Dataset}}
	if cfg.smoke {
		p.budget, p.samples = probeBudget/10, 6
	}
	for _, layer := range []func() error{p.simulators, p.engines, p.jobsLayer, p.storeLayer, p.obsLayer} {
		if err := layer(); err != nil {
			return err
		}
	}
	return nil
}

func (p *prober) per(unit time.Duration, f func()) float64 { return perCall(p.budget, unit, f) }

// simulators probes workloads, mem, leon3, the rtl kernel under it, and
// iss: one fault-free run each, then the state operations the campaign
// engine leans on, at mid-run state.
func (p *prober) simulators() (err error) {
	res, per := p.res, p.per
	var w *workloads.Workload
	res.set("workloads.build_ms", per(time.Millisecond, func() { w, err = workloads.Build(p.req.Workload, p.wcfg) }))
	if err != nil {
		return err
	}
	prog := w.Program
	res.set("mem.loadimage_us", per(time.Microsecond, func() { mem.NewMemory().LoadImage(prog.Origin, prog.Image) }))
	m := w.NewMemory()
	var img *mem.Image
	res.set("mem.snapshot_us", per(time.Microsecond, func() { img = m.Snapshot() }))
	res.set("mem.image_fork_ns", per(time.Nanosecond, func() { img.Fork() }))

	var c *leon3.Core
	res.set("leon3.new_us", per(time.Microsecond, func() { c = leon3.New(mem.NewBus(img.Fork()), prog.Entry) }))
	runNS := timed(time.Nanosecond, func() { c.Run(runBudget) })
	if c.Status() != iss.StatusExited {
		return fmt.Errorf("probe RTL run ended %v", c.Status())
	}
	cycles := c.Cycles()
	res.set("leon3.cycle_ns", runNS/float64(cycles))
	res.set("leon3.golden_cycles", float64(cycles))
	res.set("leon3.ipc", float64(c.Icount)/float64(cycles))
	c = leon3.New(mem.NewBus(img.Fork()), prog.Entry)
	c.Run(cycles / 2)
	var snap *leon3.Snapshot
	res.set("leon3.snapshot_ns", per(time.Nanosecond, func() { snap = c.Snapshot() }))
	res.set("leon3.restore_ns", per(time.Nanosecond, func() { err = c.Restore(snap) }))
	if err != nil {
		return err
	}
	var ksnap *rtl.Snapshot
	res.set("rtl.snapshot_ns", per(time.Nanosecond, func() { ksnap = c.K.Snapshot() }))
	res.set("rtl.restore_ns", per(time.Nanosecond, func() { err = c.K.Restore(ksnap) }))
	if err != nil {
		return err
	}
	nodes := c.K.Nodes(fault.TargetIU.Prefix())
	stuck := rtl.Fault{Node: nodes[len(nodes)/2], Model: rtl.StuckAt1}
	res.set("rtl.inject_clear_ns", per(time.Nanosecond, func() {
		err = c.K.Inject(stuck)
		c.K.ClearFaults()
	}))
	if err != nil {
		return err
	}
	// One witness over 64 distinct nets: what a full batch arms.
	var nets []rtl.WitnessNet
	seen := map[rtl.WitnessNet]bool{}
	for _, n := range nodes {
		if net := (rtl.WitnessNet{Name: n.Name, Word: n.Word}); !seen[net] && len(nets) < 64 {
			seen[net] = true
			nets = append(nets, net)
		}
	}
	res.set("rtl.witness_start_us", per(time.Microsecond, func() {
		var wit *rtl.Witness
		if wit, err = c.K.StartWitness(nets); err == nil {
			wit.Stop()
		}
	}))
	if err != nil {
		return err
	}
	res.set("leon3.reset_ns", per(time.Nanosecond, c.Reset))

	cpu := iss.New(mem.NewBus(img.Fork()), prog.Entry)
	issNS := timed(time.Nanosecond, func() { cpu.Run(runBudget) })
	if cpu.Status() != iss.StatusExited {
		return fmt.Errorf("probe ISS run ended %v", cpu.Status())
	}
	res.set("iss.step_ns", issNS/float64(cpu.Icount))
	res.set("iss.icount", float64(cpu.Icount))
	return nil
}

// engines probes fault and campaign on a runner of the probe's own: a
// distinct injection instant makes it a cold registry build, and it
// carries no registry, so nothing it does reaches the run's counters.
func (p *prober) engines() (err error) {
	res, req := p.res, p.req
	fopts := fault.Options{InjectAtFraction: 0.25, PulseCycles: req.PulseCycles}
	var r *fault.Runner
	res.set("fault.runner_build_ms", timed(time.Millisecond, func() { r, err = campaign.RunnerFor(req.Workload, p.wcfg, fopts) }))
	if err != nil {
		return err
	}
	res.set("fault.checkpoint_ms", timed(time.Millisecond, r.PrepareCheckpoint))
	res.set("campaign.runnerfor_hit_ns", p.per(time.Nanosecond, func() { r, err = campaign.RunnerFor(req.Workload, p.wcfg, fopts) }))
	if err != nil {
		return err
	}
	models := []rtl.FaultModel{rtl.StuckAt0, rtl.StuckAt1, rtl.OpenLine}
	if p.cfg.workload == "engine_transient" {
		models = []rtl.FaultModel{rtl.BitFlip, rtl.SETPulse}
	}
	var exps []fault.Experiment
	res.set("fault.plan_us", p.per(time.Microsecond, func() {
		exps = fault.Expand(fault.SampleNodes(r.Nodes(fault.TargetIU), req.Nodes, req.Seed), models...)
		r.ScheduleTransients(exps, req.Seed)
	}))
	p.nExps = len(exps)
	var one []float64
	for i := 0; i < len(exps) && len(one) < p.samples; i += len(exps)/p.samples + 1 {
		one = append(one, timed(time.Microsecond, func() { r.RunOne(exps[i]) }))
	}
	res.set("fault.runone_us", median(one))
	ctx := context.Background()
	secs := timed(time.Second, func() { _, _, err = r.CampaignStopContext(ctx, exps, procs, nil, nil) })
	if err != nil {
		return err
	}
	res.set("fault.campaign_exp_per_s", float64(len(exps))/secs)
	// The ISS engine on the RTL timebase, as the hybrid router drives it.
	ir, err := campaign.ISSRunnerFor(req.Workload, p.wcfg, fopts, r.GoldenCycles, r.InjectCycle())
	if err != nil {
		return err
	}
	ir.PrepareCheckpoint()
	secs = timed(time.Second, func() { _, _, err = ir.CampaignStopContext(ctx, exps, procs, nil, nil) })
	if err != nil {
		return err
	}
	res.set("fault.iss_campaign_exp_per_s", float64(len(exps))/secs)
	return nil
}

// jobsLayer probes request handling, the encoding of one real outcome, and
// sharding.
func (p *prober) jobsLayer() (err error) {
	res, req := p.res, p.req
	res.set("jobs.normalize_us", p.per(time.Microsecond, func() { _, err = req.Normalize() }))
	res.set("jobs.key_us", p.per(time.Microsecond, func() { _, err = req.Key() }))
	res.set("jobs.planshards_ns", p.per(time.Nanosecond, func() { jobs.PlanShards(p.nExps, serviceShards) }))
	if err != nil {
		return err
	}
	ctx := context.Background()
	var out *jobs.Outcome
	var ratios []float64
	for i := 0; i < 1+p.samples/24; i++ {
		rq := req
		rq.Seed -= int64(i)
		plain := timed(time.Millisecond, func() { out, err = jobs.Execute(ctx, rq, procs, nil) })
		if err != nil {
			return err
		}
		sharded := timed(time.Millisecond, func() { _, err = jobs.ExecuteSharded(ctx, rq, serviceShards, procs, nil) })
		if err != nil {
			return err
		}
		ratios = append(ratios, sharded/plain)
	}
	res.set("jobs.sharded_over_unsharded", median(ratios))
	if p.payload, err = encodeOutcome(out); err != nil {
		return err
	}
	res.set("jobs.outcome_bytes", float64(len(p.payload)))
	res.set("jobs.encode_us", p.per(time.Microsecond, func() { err = jobs.EncodeOutcome(io.Discard, out) }))
	if err != nil {
		return err
	}
	// Submit against a manager whose executor does nothing: admission,
	// keying and queueing alone.
	mgr := jobs.NewManager(jobs.ManagerOptions{
		QueueDepth: 1 << 20,
		Executor: func(context.Context, jobs.Request, int, jobs.Tap) (*jobs.Outcome, error) {
			return &jobs.Outcome{}, nil
		},
	})
	defer mgr.Close()
	next := req
	res.set("jobs.submit_us", p.per(time.Microsecond, func() {
		next.Seed++
		_, _, err = mgr.Submit(next)
	}))
	return err
}

// storeLayer probes the result store and the journal with real outcome
// payloads and request records, on the scratch disk.
func (p *prober) storeLayer() error {
	res := p.res
	dir, err := os.MkdirTemp(p.cfg.tmpRoot, "probe-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(filepath.Join(dir, "results"))
	if err != nil {
		return err
	}
	keys := make([]string, 8)
	var puts []float64
	for i := range keys {
		keys[i] = sha256Hex([]byte{byte(i)})
		puts = append(puts, timed(time.Millisecond, func() { err = st.Put(keys[i], p.payload) }))
		if err != nil {
			return err
		}
	}
	res.set("store.put_ms", median(puts))
	i := 0
	res.set("store.get_us", p.per(time.Microsecond, func() {
		st.Get(keys[i%len(keys)])
		i++
	}))
	journalPath := filepath.Join(dir, "journal.ndjson")
	j, _, err := store.OpenJournal(journalPath)
	if err != nil {
		return err
	}
	res.set("store.journal_append_us", p.per(time.Microsecond, func() { err = j.Append("shard_leased", keys[0], p.req) }))
	if err != nil {
		return err
	}
	var syncs []float64
	for i := 0; i < 8; i++ {
		syncs = append(syncs, timed(time.Millisecond, func() { err = j.AppendSync("job_submitted", keys[0], p.req) }))
		if err != nil {
			return err
		}
	}
	res.set("store.journal_appendsync_ms", median(syncs))
	if err := j.Close(); err != nil {
		return err
	}
	res.set("store.open_replay_ms", timed(time.Millisecond, func() { j, _, err = store.OpenJournal(journalPath) }))
	if err != nil {
		return err
	}
	return j.Close()
}

// obsLayer probes one counter, one histogram, and the run's whole registry.
func (p *prober) obsLayer() (err error) {
	reg := obs.NewRegistry()
	counter := reg.Counter("probe_total", "probe")
	hist := reg.Histogram("probe_seconds", "probe", obs.DurationBuckets)
	p.res.set("obs.counter_inc_ns", p.per(time.Nanosecond, counter.Inc))
	p.res.set("obs.histogram_observe_ns", p.per(time.Nanosecond, func() { hist.Observe(0.003) }))
	p.res.set("obs.writetext_us", p.per(time.Microsecond, func() { err = p.e.reg.WriteText(io.Discard) }))
	return err
}
