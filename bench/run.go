package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// processStart anchors setup_s and every span: package initialisation is
// the first thing the process does.
var processStart = time.Now()

// runConfig is one run of one workload.
type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool
	// tmpRoot is where scratch directories (the service's data dir) go.
	tmpRoot string
	// start is the instant set-up is timed from: process start for a real
	// run, the call for a run made inside a test binary.
	start time.Time
	// spanFile, when set, receives the spans of a traced run.
	spanFile string
}

// setupRuns is how many additional fresh processes set the workload up
// in an untraced run, so that setup_s is a median and not one sample.
// They are spread evenly over the timed window, between ops, because the
// host's speed phases flip every few seconds: processes started back to
// back would all sample one phase. setupGauge is how many calibration
// samples gauge the host right after each.
const (
	setupRuns  = 20
	setupGauge = 7
)

// Op counts that do not follow the clock: a traced run does a fixed
// number of campaigns so that its counts repeat exactly at a fixed seed,
// and a smoke run does two.
const (
	tracedOps = 30
	smokeOps  = 2
	// maxFailedOps ends a run whose ops keep failing.
	maxFailedOps = 5
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last stdout line: exactly these keys.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runResult is one run's outcome as result files carry it.
type runResult struct {
	resultLine
	Record runRecord `json:"record"`
	// Raw holds the uncalibrated host-time readings behind the ref times
	// and the run's median host slowdown. They carry no bound (they swing
	// with the host) and are not part of the contract's result line, but
	// every run prints and stores them so that an artefact of the
	// calibration shows: ref = raw / slowdown must hold roughly, and a ref
	// time that moves while its raw time and the slowdown do not is one.
	Raw map[string]metric `json:"raw,omitempty"`
	// Notes qualifies single metrics, e.g. which percentile of how many
	// samples op_p90_ref_ms is.
	Notes    map[string]string `json:"notes,omitempty"`
	Failures []string          `json:"failures,omitempty"`
}

func newResult(rec runRecord) *runResult {
	return &runResult{resultLine: resultLine{Metrics: map[string]metric{}}, Raw: map[string]metric{}, Notes: map[string]string{}, Record: rec}
}

func (r *runResult) raw(name string, v float64) { r.Raw[name] = metric{Value: v, Unit: unitOf(name)} }

func (r *runResult) set(name string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

func unitOf(name string) string {
	for _, defs := range [][]e2eDef{endToEnd, rawReadings} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	for _, d := range perLayer {
		if d.Name == name {
			return d.Unit
		}
	}
	return ""
}

func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// cost is what one measured call took, every figure over the same
// interval: the caller's wall time, the process's user+sys CPU time and
// the heap bytes and objects every goroutine of the process allocated.
type cost struct {
	dur           time.Duration
	cpuMS         float64
	bytes, allocs float64
}

// meter measures calls. It reads the allocation counters through
// runtime/metrics, which unlike runtime.ReadMemStats does not stop the
// world, so it is cheap enough to bracket an op of a millisecond.
type meter struct{ heap [2]metrics.Sample }

func newMeter() *meter {
	m := &meter{}
	m.heap[0].Name, m.heap[1].Name = "/gc/heap/allocs:bytes", "/gc/heap/allocs:objects"
	return m
}

func (m *meter) measure(f func() error) (cost, error) {
	metrics.Read(m.heap[:])
	bytes0, allocs0 := m.heap[0].Value.Uint64(), m.heap[1].Value.Uint64()
	cpu0 := processUsage().cpuMS
	t0 := time.Now()
	err := f()
	c := cost{dur: time.Since(t0), cpuMS: processUsage().cpuMS - cpu0}
	metrics.Read(m.heap[:])
	c.bytes, c.allocs = float64(m.heap[0].Value.Uint64()-bytes0), float64(m.heap[1].Value.Uint64()-allocs0)
	return c, err
}

// runWorkload sets one workload up, runs its closed loop, checks its
// outputs and returns the end-to-end metrics (untraced) or the per-layer
// metrics (traced).
func runWorkload(cfg runConfig) (*runResult, error) {
	runtime.GOMAXPROCS(procs)
	res := newResult(newRecord(cfg))
	e := &env{seed: cfg.seed, smoke: cfg.smoke, tmpRoot: cfg.tmpRoot, meter: newMeter()}
	if cfg.trace {
		e.reg = obs.NewRegistry()
		e.stages = e.reg.HistogramVec("jobs_campaign_stage_seconds",
			"Per-stage campaign execution latency.", obs.DurationBuckets, "stage")
		e.tr = &tracer{}
	}

	tgt := newTarget(cfg.workload, e)
	defer tgt.close()
	sp := e.tr.begin("setup", "", -1)
	if err := tgt.setup(); err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
	}
	e.tr.end(sp)
	setupRaw := []float64{time.Since(cfg.start).Seconds()}
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.close()
	setupRef := []float64{setupRaw[0] / cal.gauge(setupGauge)}

	// The timed window: one client, next op only after the last returned.
	// Each op's wall and CPU time is kept raw and in reference-host time,
	// divided by the slowdown sampled right after it (see calibrate.go).
	// The window's clock stops while a set-up process runs.
	var latMS, refMS []float64
	var total cost
	var cpuRefMS float64
	var paused time.Duration
	exps, setups := 0, 0
	if !cfg.trace && !cfg.smoke {
		setups = setupRuns
	}
	s0, err := scrape(e.reg)
	if err != nil {
		return nil, err
	}
	samples0 := len(cal.samples)
	windowStart := time.Now()
	window := func() float64 { return (time.Since(windowStart) - paused).Seconds() }
	more := func(i int) bool {
		switch {
		case cfg.smoke:
			return i < smokeOps
		case cfg.trace:
			return i < tracedOps
		}
		return window() < cfg.seconds
	}
	for i := 0; more(i) && res.Failed < maxFailedOps; i++ {
		for n := len(setupRaw); n <= setups && window() >= cfg.seconds*float64(n)/float64(setups+1); n++ {
			t0 := time.Now()
			s, err := setupInFreshProcess(cfg)
			if err != nil {
				return nil, err
			}
			setupRaw, setupRef = append(setupRaw, s), append(setupRef, s/cal.gauge(setupGauge))
			paused += time.Since(t0)
		}
		sp := e.tr.begin("op", "", -1)
		r, err := tgt.op(i, sp)
		e.tr.end(sp)
		slow, tailCPU := cal.now()
		r.cpuMS += tailCPU
		res.Attempted++
		if err == nil {
			err = tgt.after(i)
		}
		if err != nil {
			res.fail("op %d: %v", i, err)
			continue
		}
		ms := float64(r.dur) / 1e6
		latMS, refMS = append(latMS, ms), append(refMS, ms/slow)
		total.cpuMS, cpuRefMS = total.cpuMS+r.cpuMS, cpuRefMS+r.cpuMS/slow
		total.bytes, total.allocs = total.bytes+r.bytes, total.allocs+r.allocs
		exps += r.exps
	}
	windowSamples := cal.samples[samples0:]
	host := cal.latest / calRefMS // a window too short to hold a sample of its own
	if len(windowSamples) > 0 {
		host = median(windowSamples) / calRefMS
	}
	s1, err := scrape(e.reg)
	if err != nil {
		return nil, err
	}
	res.Record.Ops = len(latMS)
	if len(latMS) == 0 {
		return res, fmt.Errorf("%s: no op succeeded: %s", cfg.workload, strings.Join(res.Failures, "; "))
	}

	for _, f := range tgt.verify() {
		res.fail("%s", f)
	}
	if cfg.seed == defaultSeed {
		if err := checkPin(goldenPins, pinName(cfg.workload, cfg.smoke), tgt.first()); err != nil {
			res.fail("%v", err)
		}
	}

	rawP90, used := tail(latMS, 0.90)
	refP90, _ := tail(refMS, 0.90)
	res.raw("op_p90_ref_ms", refP90)
	res.Notes["op_p90_ref_ms"] = fmt.Sprintf("p%.0f of n=%d", used*100, len(latMS))
	res.raw("peak_rss_mb", processUsage().peakRSSMB-cal.footprintMB())
	res.Notes["peak_rss_mb"] = fmt.Sprintf("less the calibrator's %.0f MB", cal.footprintMB())
	res.raw("exp_per_s", float64(exps)/(sum(latMS)/1e3))
	res.raw("op_p50_ms", median(latMS))
	res.raw("op_p90_ms", rawP90)
	res.raw("cpu_ms_per_kexp", total.cpuMS/float64(exps)*1e3)
	res.raw("setup_raw_s", median(setupRaw))
	res.raw("host_slowdown", host)
	if cfg.trace {
		if err := layerMetrics(res, cfg, e, tgt, s0, s1); err != nil {
			return nil, err
		}
		res.set("host.peak_rss_mb", processUsage().peakRSSMB-cal.footprintMB())
		if cfg.spanFile != "" {
			if err := writeSpans(cfg.spanFile, res.Record, e.tr.spans); err != nil {
				return nil, err
			}
		}
	} else {
		res.set("setup_s", median(setupRef))
		res.set("exp_per_ref_s", float64(exps)/(sum(refMS)/1e3))
		res.set("op_p50_ref_ms", median(refMS))
		res.set("cpu_ref_ms_per_kexp", cpuRefMS/float64(exps)*1e3)
		res.set("alloc_kb_per_exp", total.bytes/1024/float64(exps))
		res.set("allocs_per_exp", total.allocs/float64(exps))
		res.Notes["setup_s"] = fmt.Sprintf("median of %d fresh processes spread over the window", len(setupRaw))
		res.Notes["exp_per_ref_s"] = fmt.Sprintf("%d experiments in %.2f s of ops, %d calibration samples", exps, sum(latMS)/1e3, len(windowSamples))
		res.Notes["op_p50_ref_ms"] = fmt.Sprintf("n=%d", len(latMS))
	}
	res.Record.WallS = time.Since(cfg.start).Seconds()
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0
	return res, nil
}

// setupInFreshProcess starts this program again to do nothing but set the
// workload up, and returns the seconds that process took from its start
// to being ready for its first timed op.
func setupInFreshProcess(cfg runConfig) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "-setup-only", "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-tmp", cfg.tmpRoot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output() // runs the child to completion and reaps it
	if err != nil {
		return 0, fmt.Errorf("set-up process: %w", err)
	}
	return strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
}

// setupOnlyRun is the child side of setupInFreshProcess.
func setupOnlyRun(cfg runConfig) (float64, error) {
	runtime.GOMAXPROCS(procs)
	tgt := newTarget(cfg.workload, &env{seed: cfg.seed, tmpRoot: cfg.tmpRoot, meter: newMeter()})
	defer tgt.close()
	if err := tgt.setup(); err != nil {
		return 0, err
	}
	return time.Since(cfg.start).Seconds(), nil
}

// scrape reads every series of a registry through its text exposition,
// the one read interface the obs package offers.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// sumSeries adds up every series of one family whose label set contains
// the given fragment ("" matches all).
func sumSeries(series map[string]float64, family, labelFragment string) float64 {
	total := 0.0
	for name, v := range series {
		base, labels, _ := strings.Cut(name, "{")
		if base == family && strings.Contains(labels, labelFragment) {
			total += v
		}
	}
	return total
}

// spanFileContent is what a traced run writes out when it ends.
type spanFileContent struct {
	Record runRecord `json:"record"`
	// SelfMSByName sums, per span name, duration minus child coverage.
	SelfMSByName map[string]float64 `json:"self_ms_by_name"`
	Spans        []span             `json:"spans"`
}

func writeSpans(path string, rec runRecord, spans []span) error {
	c := spanFileContent{Record: rec, SelfMSByName: map[string]float64{}, Spans: spans}
	for name, ns := range selfByName(spans) {
		c.SelfMSByName[name] = float64(ns) / 1e6
	}
	b, err := json.MarshalIndent(c, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
