package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// suiteConfig is one invocation without -workload: every workload, each
// in a process of its own, untraced and then traced.
type suiteConfig struct {
	seed    int64
	seconds float64
	smoke   bool
	repeat  int
	out     string
	tmp     string
}

// suiteWorkload is the Record.Workload of the result file that holds the
// metrics derived across workloads.
const suiteWorkload = "suite"

// derived are the metrics only a whole set of runs can give: ratios
// across workloads and across the traced and untraced run of one.
var derived = []e2eDef{
	// op_p50_ref_ms(service_durable) / (engine_perm): same request shape, so the
	// quotient is what HTTP, shards, journal and store cost a campaign. It
	// carries the bound of the two medians it is made of.
	{"service_tax_ratio", "ratio", lower, 0.25},
	// Failed ops and checks over attempted ops, all workloads; any
	// failure fails the command, so the only good value is 0.
	{"fail_frac", "frac", lower, 0},
}

// overheadName is the per-workload tracing overhead: the share of
// exp_per_ref_s lost with registry, tracer and spans attached.
func overheadName(workload string) string { return "obs.trace_overhead_frac." + workload }

// runSuite runs the whole set repeat times. Each run is a child process:
// campaign.RunnerFor keeps the first registry it was built with wired
// into the memoized runner, so a traced run must never share a process
// with an untraced one. It reports whether every run was correct.
func runSuite(stdout, stderr io.Writer, cfg suiteConfig) (bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	dir := cfg.out
	if dir == "" {
		dir = filepath.Join(cfg.tmp, "last")
		if err := os.RemoveAll(dir); err != nil {
			return false, err
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	// A result set is whatever its directory holds, so files left by an
	// earlier, longer -repeat would join this one.
	if old, err := os.ReadDir(dir); err != nil {
		return false, err
	} else if len(old) > 0 {
		return false, fmt.Errorf("-out %s is not empty; a result set needs a directory of its own", dir)
	}
	allCorrect := true
	for rep := 0; rep < cfg.repeat; rep++ {
		results := map[string]*runResult{} // workload + "/e2e" or "/layer"
		for _, w := range workloadDefs {
			for _, traced := range []bool{false, true} {
				kind, trace := "e2e", "0"
				if traced {
					kind, trace = "layer", "1"
				}
				file := filepath.Join(dir, fmt.Sprintf("r%02d-%s-%s.json", rep, w.Name, kind))
				args := []string{"-workload", w.Name, "-seed", strconv.FormatInt(cfg.seed, 10),
					"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", trace,
					"-tmp", cfg.tmp, "-result", file}
				if traced {
					args = append(args, "-spans", strings.TrimSuffix(file, ".json")+".spans.json")
				}
				if cfg.smoke {
					args = append(args, "-smoke")
				}
				cmd := exec.Command(exe, args...)
				cmd.Stdout, cmd.Stderr = stdout, stderr
				runErr := cmd.Run() // waits for the child to end
				res, err := readResult(file)
				if err != nil {
					return false, fmt.Errorf("%s (trace %s): %v; %w", w.Name, trace, runErr, err)
				}
				allCorrect = allCorrect && runErr == nil && res.Correct
				results[w.Name+"/"+kind] = res
				fmt.Fprintln(stdout)
			}
		}
		d := deriveSuite(results)
		allCorrect = allCorrect && d.Correct
		printResult(stdout, d)
		if err := writeResult(filepath.Join(dir, fmt.Sprintf("r%02d-%s-e2e.json", rep, suiteWorkload)), d); err != nil {
			return false, err
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprintf(stdout, "results in %s\n", dir)
	return allCorrect, nil
}

// deriveSuite computes the cross-run metrics of one repetition.
func deriveSuite(results map[string]*runResult) *runResult {
	d := newResult(results["engine_perm/e2e"].Record)
	d.Record.Workload = suiteWorkload
	d.Record.WallS = 0
	for _, r := range results {
		d.Attempted += r.Attempted
		d.Failed += r.Failed
		d.Record.WallS += r.Record.WallS
	}
	d.Correct = d.Failed == 0
	value := func(key, name string) float64 { return results[key].Metrics[name].Value }
	d.Metrics["service_tax_ratio"] = metric{value("service_durable/e2e", "op_p50_ref_ms") / value("engine_perm/e2e", "op_p50_ref_ms"), "ratio"}
	d.Metrics["fail_frac"] = metric{float64(d.Failed) / float64(d.Attempted), "frac"}
	for _, w := range workloadDefs {
		// Both sides in reference-host time: the two runs are minutes apart.
		untraced := value(w.Name+"/e2e", "exp_per_ref_s")
		traced := value(w.Name+"/layer", "obs.traced_exp_per_s") * value(w.Name+"/layer", "host.slowdown")
		d.Metrics[overheadName(w.Name)] = metric{1 - traced/untraced, "frac"}
	}
	return d
}

func writeResult(path string, res *runResult) error {
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResult(path string) (*runResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res := &runResult{}
	if err := json.Unmarshal(b, res); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return res, nil
}

// ---------------------------------------------------------------------------
// -agree: do two sets of runs of the same code tell the same story?

// resultSet is the values of every metric of every kind of run in one
// directory: key "workload/e2e|layer", then metric name, one value per
// repetition.
type resultSet struct {
	values  map[string]map[string][]float64
	records []runRecord
}

func loadSet(dir string) (*resultSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "r*-*-*.json"))
	if err != nil {
		return nil, err
	}
	set := &resultSet{values: map[string]map[string][]float64{}}
	for _, f := range files {
		if strings.HasSuffix(f, ".spans.json") {
			continue
		}
		res, err := readResult(f)
		if err != nil {
			return nil, err
		}
		key := res.Record.Workload + "/e2e"
		if res.Record.Traced {
			key = res.Record.Workload + "/layer"
		}
		if set.values[key] == nil {
			set.values[key] = map[string][]float64{}
		}
		for _, metrics := range []map[string]metric{res.Metrics, res.Raw} { // their names do not collide
			for name, m := range metrics {
				set.values[key][name] = append(set.values[key][name], m.Value)
			}
		}
		set.records = append(set.records, res.Record)
	}
	if len(set.records) == 0 {
		return nil, fmt.Errorf("%s holds no result files", dir)
	}
	return set, nil
}

// settingsDiffer says what differs between the settings of two sets, if
// anything does: medians of differently configured runs do not compare.
func settingsDiffer(a, b *resultSet) []string {
	ra, rb := a.records[0], b.records[0]
	var diffs []string
	note := func(what string, x, y any) {
		if x != y {
			diffs = append(diffs, fmt.Sprintf("%s: %v vs %v", what, x, y))
		}
	}
	note("base seed", ra.BaseSeed, rb.BaseSeed)
	note("seconds", ra.Seconds, rb.Seconds)
	note("smoke", ra.Smoke, rb.Smoke)
	note("gomaxprocs", ra.GOMAXPROCS, rb.GOMAXPROCS)
	note("nproc", ra.NumCPU, rb.NumCPU)
	note("cpu model", ra.CPUModel, rb.CPUModel)
	note("go version", ra.GoVersion, rb.GoVersion)
	note("data-dir filesystem", ra.DataDirFS, rb.DataDirFS)
	return diffs
}

// verdict judges set B against set A on one metric. A bounded metric is
// "WORSE" when B's median is worse than A's by more than the bound,
// "unresolved" when it is not but either set's own spread exceeds the
// bound, and "drift" when it is within the bound yet worse by more than
// both sets' own spreads: the slow slide (issue 11 names -10 % and -17 %)
// that a bound wide enough for this host's noise lets through. A drift
// does not fail the command; a person should look at it. An exact metric
// must read the same in both sets.
func verdict(a, b []float64, better string, bound float64, exact, bounded bool) (worse float64, status string) {
	ma, mb := median(a), median(b)
	if exact {
		if ma != mb || iqrShare(a) != 0 || iqrShare(b) != 0 {
			return 0, "DIFFERS"
		}
		return 0, "same"
	}
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == higher {
			worse = -worse
		}
	}
	switch {
	case !bounded:
		return worse, "-"
	case worse > bound:
		return worse, "WORSE"
	case iqrShare(a) > bound || iqrShare(b) > bound:
		return worse, "unresolved"
	case worse > iqrShare(a) && worse > iqrShare(b):
		return worse, "drift"
	}
	return worse, "ok"
}

// agreeDirs prints one row per workload and metric and reports whether
// the two sets are the same experiment, every bounded metric is within
// its bound and every exact metric equal.
func agreeDirs(w io.Writer, dirA, dirB string) (bool, error) {
	a, err := loadSet(dirA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(dirB)
	if err != nil {
		return false, err
	}
	ok := true
	for _, d := range settingsDiffer(a, b) {
		fmt.Fprintf(w, "NOT COMPARABLE %s\n", d)
		ok = false
	}
	fmt.Fprintf(w, "%-16s %-34s %14s %14s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "iqr A", "iqr B", "bound", "verdict")
	row := func(key, workload, name, better string, bound float64, exact, bounded bool) {
		va, vb := a.values[key][name], b.values[key][name]
		if len(va) == 0 || len(vb) == 0 {
			fmt.Fprintf(w, "%-16s %-34s missing from a set\n", workload, name)
			ok = false
			return
		}
		worse, status := verdict(va, vb, better, bound, exact, bounded)
		if status == "WORSE" || status == "DIFFERS" {
			ok = false
		}
		limit := "-"
		if exact {
			limit = "exact"
		} else if bounded {
			limit = fmt.Sprintf("%.0f%%", bound*100)
		}
		fmt.Fprintf(w, "%-16s %-34s %14.6g %14.6g %+7.1f%% %6.1f%% %6.1f%% %6s  %s\n",
			workload, name, median(va), median(vb), worse*100, iqrShare(va)*100, iqrShare(vb)*100, limit, status)
	}
	for _, wl := range workloadDefs {
		for _, d := range endToEnd {
			row(wl.Name+"/e2e", wl.Name, d.Name, d.Better, d.Bound, false, true)
		}
		for _, d := range rawReadings {
			row(wl.Name+"/e2e", wl.Name, d.Name, d.Better, 0, false, false)
		}
	}
	if _, have := a.values[suiteWorkload+"/e2e"]; have {
		for _, d := range derived {
			row(suiteWorkload+"/e2e", suiteWorkload, d.Name, d.Better, d.Bound, d.Bound == 0, true)
		}
		names := make([]string, 0, len(workloadDefs))
		for _, wl := range workloadDefs {
			names = append(names, overheadName(wl.Name))
		}
		sort.Strings(names)
		for _, name := range names {
			row(suiteWorkload+"/e2e", suiteWorkload, name, lower, 0, false, false)
		}
	}
	for _, wl := range workloadDefs {
		if _, have := a.values[wl.Name+"/layer"]; !have {
			continue
		}
		for _, d := range perLayer {
			row(wl.Name+"/layer", wl.Name, d.Name, d.Better, 0, d.Exact, false)
		}
	}
	return ok, nil
}
