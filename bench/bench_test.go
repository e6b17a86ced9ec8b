package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestQuantileAndTail(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 200..1: the helpers must not rely on order
	}
	if got := median(xs); got != 100.5 {
		t.Errorf("median = %v, want 100.5", got)
	}
	if xs[0] != 200 {
		t.Errorf("median sorted its argument in place")
	}
	for _, c := range []struct {
		n    int
		used float64
	}{{200, 0.90}, {100, 0.90}, {50, 0.80}, {25, 0.60}, {12, 0.5}, {1, 0.5}} {
		v, used := tail(xs[:c.n], 0.90)
		if math.Abs(used-c.used) > 1e-12 {
			t.Errorf("tail of %d samples used p%.0f, want p%.0f", c.n, used*100, c.used*100)
		}
		if want := quantile(xs[:c.n], c.used); v != want {
			t.Errorf("tail of %d samples = %v, want the p%.0f %v", c.n, v, c.used*100, want)
		}
	}
	if v, _ := tail(nil, 0.9); v != 0 {
		t.Errorf("tail of nothing = %v, want 0", v)
	}
}

// statistics.quantiles([1..10], n=4) is [2.75, 5.5, 8.25] and of
// [3, 1, 4, 1, 5] is [1.0, 3.0, 4.5].
func TestIQRShareMatchesPython(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := iqrShare(ten), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(1..10) = %v, want %v", got, want)
	}
	if got, want := iqrShare([]float64{3, 1, 4, 1, 5}), (4.5-1.0)/3.0; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqrShare(3,1,4,1,5) = %v, want %v", got, want)
	}
	if got := iqrShare([]float64{7}); got != 0 {
		t.Errorf("iqrShare of one sample = %v, want 0", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: 20..30 counts once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // clipped to the parent's end
		{Name: "a", Start: 12, End: 18, Parent: 1},  // grandchild: only a's self time shrinks
		{Name: "lone", Start: 5, End: 9, Parent: -1},
	}
	want := []int64{100 - (20 + 20 + 10), 20 - 6, 30, 30, 6, 4}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if by := selfByName(spans); by["a"] != 14+6 || by["op"] != 50 {
		t.Errorf("selfByName = %v", by)
	}
	var none *tracer
	none.end(none.begin("x", "", -1)) // a nil tracer records nothing and must not panic
	none.add("x", "", -1, 0, 1)
}

func TestRequestsDeterministic(t *testing.T) {
	list := func(seed int64) ([]byte, map[string]bool) {
		e := &env{seed: seed}
		var buf bytes.Buffer
		keys := map[string]bool{}
		for _, w := range workloadDefs[:4] { // rawsim has no requests
			for i := -2; i < 300; i++ { // -2 probes, -1 warms up
				req := e.request(w.Name, i)
				key, err := req.Key()
				if err != nil {
					t.Fatalf("%s request %d: %v", w.Name, i, err)
				}
				if keys[key] {
					t.Fatalf("%s request %d repeats a content address within one run", w.Name, i)
				}
				keys[key] = true
				if err := json.NewEncoder(&buf).Encode(req); err != nil {
					t.Fatal(err)
				}
			}
		}
		return buf.Bytes(), keys
	}
	a, keysA := list(7)
	b, _ := list(7)
	if !bytes.Equal(a, b) {
		t.Error("the same seed generated different request lists")
	}
	// A far-away seed shares no campaign with seed 7.
	_, keysC := list(7 + 1<<30)
	for k := range keysC {
		if keysA[k] {
			t.Fatal("different seeds generated a common content address")
		}
	}
}

// contractFile is BENCHMARK.json as the PR driver reads it.
type contractFile struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []e2eDef      `json:"end_to_end"`
	PerLayer   []layerDef    `json:"per_layer"`
}

func readContract(t *testing.T) contractFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, manifest()) {
		t.Error("BENCHMARK.json is not what `go run ./bench -manifest` prints; regenerate it")
	}
	var c contractFile
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBenchmarkJSONMeetsTheContract(t *testing.T) {
	c := readContract(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q breaks the contract's syntax", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if len(c.Workloads) < 2 || len(c.Workloads) > 8 {
		t.Errorf("%d workloads, want 2..8", len(c.Workloads))
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("workload %s: why must be one line of at most 200 characters (has %d)", w.Name, len(w.Why))
		}
	}
	if len(c.EndToEnd) < 1 || len(c.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(c.EndToEnd))
	}
	haveSetup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v breaks the contract", m)
		}
		if m.Name == "setup_s" {
			haveSetup = m.Unit == "s" && m.Better == lower
			for _, o := range c.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !haveSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(c.PerLayer) < 1 || len(c.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(c.PerLayer))
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != lower && m.Better != higher) {
			t.Errorf("per-layer metric %+v breaks the contract", m)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 || len(c.Paths) != 1 || c.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", c.RunSeconds, c.Paths)
	}
}

func TestTamperedGoldenIsDetected(t *testing.T) {
	output := []byte("the first outcome of a workload\n")
	pins := map[string]string{"w": sha256Hex(output)}
	if err := checkPin(pins, "w", output); err != nil {
		t.Errorf("matching pin rejected: %v", err)
	}
	pins["w"] = "0" + pins["w"][1:]
	if pins["w"] == sha256Hex(output) {
		pins["w"] = "1" + pins["w"][1:]
	}
	if err := checkPin(pins, "w", output); err == nil {
		t.Error("a tampered pin was accepted")
	}
	if err := checkPin(pins, "absent", output); err == nil {
		t.Error("a missing pin was accepted")
	}
	for _, w := range workloadDefs {
		for _, smoke := range []bool{false, true} {
			if _, ok := goldenPins[pinName(w.Name, smoke)]; !ok {
				t.Errorf("golden.json has no pin for %s", pinName(w.Name, smoke))
			}
		}
	}
}

// TestSmoke runs every workload for two ops, untraced and traced, with
// every output check on, and requires exactly the metric names
// BENCHMARK.json promises. (Sharing one process, the traced runs here see
// runners built without a registry, so their engine counters read 0; the
// real traced run is a process of its own.)
func TestSmoke(t *testing.T) {
	c := readContract(t)
	want := map[bool][]string{}
	for _, m := range c.EndToEnd {
		want[false] = append(want[false], m.Name)
	}
	for _, m := range c.PerLayer {
		want[true] = append(want[true], m.Name)
	}
	tmp := t.TempDir()
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := runConfig{workload: w.Name, seed: defaultSeed, smoke: true, trace: traced, tmpRoot: tmp, start: time.Now()}
			if traced {
				cfg.spanFile = filepath.Join(tmp, w.Name+".spans.json")
			}
			res, err := runWorkload(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted != smokeOps {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failures=%v", w.Name, traced, res.Correct, res.Attempted, res.Failures)
			}
			if len(res.Metrics) != len(want[traced]) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want[traced]))
			}
			for _, name := range want[traced] {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s missing", w.Name, traced, name)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (!traced && m.Value <= 0) {
					t.Errorf("%s traced=%v: metric %s = %v", w.Name, traced, name, m.Value)
				}
			}
			if traced {
				var spans spanFileContent
				b, err := os.ReadFile(cfg.spanFile)
				if err == nil {
					err = json.Unmarshal(b, &spans)
				}
				if err != nil || len(spans.Spans) == 0 || len(spans.SelfMSByName) == 0 {
					t.Errorf("%s: span file: %v (%d spans)", w.Name, err, len(spans.Spans))
				}
			}
		}
	}
	if left, _ := filepath.Glob(filepath.Join(tmp, "*-*")); len(left) != 0 {
		t.Errorf("runs left scratch directories behind: %v", left)
	}
}

// TestResultLine drives the command itself: the last stdout line is one
// JSON object with exactly the contract's four keys.
func TestResultLine(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"--workload", "rawsim", "--seed", "3", "--seconds", "1", "--trace", "0", "-smoke", "-tmp", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := line[k]; !ok {
			t.Errorf("result line lacks %q", k)
		}
	}
	if len(line) != 4 {
		t.Errorf("result line has %d keys, want 4", len(line))
	}
	if code := realMain([]string{"-workload", "nope"}, &stdout, &stderr); code == 0 {
		t.Error("an unknown workload exited 0")
	}
}

func TestAgree(t *testing.T) {
	write := func(dir string, seed int64, scale float64, cycles float64) {
		for rep := 0; rep < 5; rep++ {
			jitter := 1 + 0.01*float64(rep-2)
			for _, w := range workloadDefs {
				e2e := newResult(runRecord{Workload: w.Name, BaseSeed: seed})
				for _, d := range endToEnd {
					v := 100 * jitter
					if d.Name == "exp_per_ref_s" {
						v *= scale
					}
					e2e.Metrics[d.Name] = metric{v, d.Unit}
				}
				for _, d := range rawReadings {
					e2e.raw(d.Name, 70*jitter*scale) // unbounded: may move freely
				}
				layer := newResult(runRecord{Workload: w.Name, BaseSeed: seed, Traced: true})
				for _, d := range perLayer {
					v := 50 * jitter
					if d.Exact {
						v = cycles
					}
					layer.Metrics[d.Name] = metric{v, d.Unit}
				}
				for kind, r := range map[string]*runResult{"e2e": e2e, "layer": layer} {
					if err := writeResult(filepath.Join(dir, "r0"+string(rune('0'+rep))+"-"+w.Name+"-"+kind+".json"), r); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	base, same, slid, slower, moved, reseeded := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	write(base, 1, 1, 4242)
	write(same, 1, 0.99, 4242)   // within every bound and the sets' own 3% spread
	write(slid, 1, 0.90, 4242)   // exp_per_ref_s 10% worse: inside the bound, outside the spread
	write(slower, 1, 0.70, 4242) // exp_per_ref_s 30% worse
	write(moved, 1, 1.0, 4243)   // a simulated count moved
	write(reseeded, 2, 1, 4242)  // every number agrees, but it is another experiment
	for _, c := range []struct {
		dir   string
		want  bool
		drift bool
	}{{same, true, false}, {slid, true, true}, {slower, false, false}, {moved, false, false}, {reseeded, false, false}} {
		var out bytes.Buffer
		ok, err := agreeDirs(&out, base, c.dir)
		if err != nil {
			t.Fatal(err)
		}
		if ok != c.want || strings.Contains(out.String(), "drift") != c.drift {
			t.Errorf("agreeDirs = %v, want %v (drift flagged: %v):\n%s", ok, c.want, c.drift, out.String())
		}
	}
	if _, err := agreeDirs(&bytes.Buffer{}, base, t.TempDir()); err == nil {
		t.Error("an empty result directory was accepted")
	}
	// A set is what its directory holds, so -out must not add to one.
	if _, err := runSuite(&bytes.Buffer{}, &bytes.Buffer{}, suiteConfig{seed: 1, smoke: true, repeat: 1, out: base, tmp: t.TempDir()}); err == nil {
		t.Error("-out accepted a directory that already holds results")
	}
}

// The calibration kernel must not touch the Go heap: a sample that
// allocated could start, or wait for, a collection whose cost depends on
// the program under test.
func TestCalibrationKernelAllocatesNothing(t *testing.T) {
	c, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	if n := testing.AllocsPerRun(50, func() { c.sample() }); n != 0 {
		t.Errorf("one calibration sample makes %v heap allocations, want 0", n)
	}
	if slow, _ := c.now(); slow <= 0 || c.gauge(3) <= 0 {
		t.Error("the calibrator read a slowdown of zero")
	}
}
