// Command bench is the repository's benchmark: the one program every
// performance claim on this code base is measured with. See README.md in
// this directory for who the metrics serve, what each workload isolates
// and how to run, trace and compare runs; BENCHMARK.json at the
// repository root is rendered from the tables in metrics.go.
//
//	go run ./bench                                 every workload, untraced then traced
//	go run ./bench -workload W -seed N -seconds S -trace 0|1
//	                                               one run; last stdout line is the result JSON
//	go run ./bench -repeat 5 -out DIR              a set of runs for -agree
//	go run ./bench -agree DIR_A DIR_B              compare two sets against the bounds
//	go run ./bench -smoke                          two ops per workload, all checks
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

// scratchDir is where the benchmark writes, relative to the directory it
// is run from: data dirs while a run lasts, span files, result sets.
const scratchDir = ".bench_tmp"

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run one workload and print its result JSON as the last line (default: all, as child processes)")
		seed      = fs.Int64("seed", defaultSeed, "base seed; campaign i of a run uses seed+i")
		seconds   = fs.Float64("seconds", defaultSeconds, "length of the timed window of an untraced run")
		trace     = fs.Int("trace", 0, "1 attaches registry, tracer and spans and prints the per-layer metrics instead")
		smoke     = fs.Bool("smoke", false, "two small ops per workload: checks everything, measures nothing")
		repeat    = fs.Int("repeat", 1, "with no -workload: how many times to run the whole set")
		out       = fs.String("out", "", "with no -workload: new or empty directory that receives one result file per run")
		agree     = fs.Bool("agree", false, "compare two result directories (the two arguments) against BENCHMARK.json's bounds")
		tmp       = fs.String("tmp", scratchDir, "scratch directory; must be on a real disk for the store metrics to mean anything")
		setupOnly = fs.Bool("setup-only", false, "internal: set the workload up, print the seconds it took, exit")
		result    = fs.String("result", "", "with -workload: also write the full result, run record included, to this file")
		spans     = fs.String("spans", "", "with -trace 1: where the span file goes (default: under -tmp)")
		pins      = fs.Bool("pins", false, "print golden.json for the current code and exit")
		printMf   = fs.Bool("manifest", false, "print BENCHMARK.json for the current tables and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *printMf {
		stdout.Write(manifest())
		return 0
	}
	if *agree {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-agree takes two result directories"))
		}
		ok, err := agreeDirs(stdout, fs.Arg(0), fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		return exitCode(ok)
	}
	if err := os.MkdirAll(*tmp, 0o755); err != nil {
		return fail(err)
	}
	if *pins {
		p, err := computePins(*tmp)
		if err != nil {
			return fail(err)
		}
		b, _ := json.MarshalIndent(p, "", "  ") // a map of strings always encodes
		fmt.Fprintf(stdout, "%s\n", b)
		return 0
	}

	if *workload == "" {
		ok, err := runSuite(stdout, stderr, suiteConfig{
			seed: *seed, seconds: *seconds, smoke: *smoke, repeat: *repeat, out: *out, tmp: *tmp,
		})
		if err != nil {
			return fail(err)
		}
		return exitCode(ok)
	}

	if !knownWorkload(*workload) {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	cfg := runConfig{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, smoke: *smoke,
		tmpRoot: *tmp, start: processStart,
	}
	if *setupOnly {
		s, err := setupOnlyRun(cfg)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%.6f\n", s)
		return 0
	}
	if cfg.trace {
		cfg.spanFile = *spans
		if cfg.spanFile == "" {
			cfg.spanFile = filepath.Join(*tmp, fmt.Sprintf("spans-%s-seed%d.json", cfg.workload, cfg.seed))
		}
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return fail(err)
	}
	if *result != "" {
		if err := writeResult(*result, res); err != nil {
			return fail(err)
		}
	}
	printResult(stdout, res)
	if cfg.spanFile != "" {
		fmt.Fprintf(stdout, "spans written to %s\n", cfg.spanFile)
	}
	line, _ := json.Marshal(res.resultLine) // plain numbers and strings always encode
	fmt.Fprintf(stdout, "%s\n", line)
	return exitCode(res.Correct)
}

func exitCode(ok bool) int {
	if ok {
		return 0
	}
	return 1
}

func knownWorkload(name string) bool {
	for _, w := range workloadDefs {
		if w.Name == name {
			return true
		}
	}
	return false
}

// printResult lists every metric of a run by name with its unit, then
// the failures, for a person to read.
func printResult(w io.Writer, res *runResult) {
	rec := res.Record
	mode := "untraced"
	if rec.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "# %s %s seed=%d ops=%d commit=%s %s nproc=%d gomaxprocs=%d fs=%s cpu=%q\n",
		rec.Workload, mode, rec.BaseSeed, rec.Ops, rec.GitCommit, rec.GoVersion, rec.NumCPU, rec.GOMAXPROCS, rec.DataDirFS, rec.CPUModel)
	printMetrics(w, res.Metrics, res.Notes)
	if len(res.Raw) > 0 {
		fmt.Fprintln(w, "# readings without a bound: tail, memory, raw host time and the host's slowdown")
		printMetrics(w, res.Raw, res.Notes)
	}
	fmt.Fprintf(w, "%-36s %16d of %d ops\n", "failed", res.Failed, res.Attempted)
	for _, f := range res.Failures {
		fmt.Fprintf(w, "FAIL %s\n", f)
	}
}

func printMetrics(w io.Writer, metrics map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := metrics[name]
		note := ""
		if n := notes[name]; n != "" {
			note = "  (" + n + ")"
		}
		fmt.Fprintf(w, "%-36s %16.6g %-6s%s\n", name, m.Value, m.Unit, note)
	}
}

// computePins runs op 0 of every workload at the default seed, at both
// sizes, and returns the digests golden.json should hold.
func computePins(tmp string) (map[string]string, error) {
	pins := map[string]string{}
	for _, w := range workloadDefs {
		for _, smoke := range []bool{false, true} {
			tgt := newTarget(w.Name, &env{seed: defaultSeed, smoke: smoke, tmpRoot: tmp, meter: newMeter()})
			err := tgt.setup()
			if err == nil {
				_, err = tgt.op(0, -1)
			}
			if err == nil {
				err = tgt.after(0)
			}
			if err == nil {
				pins[pinName(w.Name, smoke)] = sha256Hex(tgt.first())
			}
			tgt.close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.Name, err)
			}
		}
	}
	return pins, nil
}
