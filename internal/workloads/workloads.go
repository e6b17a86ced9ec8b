// Package workloads provides the benchmark suite of the reproduction: an
// EEMBC-Autobench-workalike automotive set (puwmod, canrdr, ttsprk,
// rspeed, a2time, tblook, basefp, bitmnp), the two low-diversity synthetic
// benchmarks (membench, intbench) and the Figure-3 initialization-phase
// excerpts, all assembled to SPARC V8 machine code with the bundled
// runtime (trap table, window spill/fill handlers, exit device).
package workloads

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/mem"
)

// Kind classifies a workload.
type Kind int

// Workload kinds.
const (
	Automotive Kind = iota
	Synthetic
	Excerpt
)

func (k Kind) String() string {
	switch k {
	case Automotive:
		return "automotive"
	case Synthetic:
		return "synthetic"
	case Excerpt:
		return "excerpt"
	}
	return "kind?"
}

// Config selects a workload variant.
type Config struct {
	// Iterations is the kernel iteration count; 0 selects the workload's
	// default (tuned to approximate the paper's Table 1 footprint).
	Iterations int
	// Dataset selects the input dataset (0..2 for excerpts; for full
	// benchmarks it perturbs the generated data tables).
	Dataset int
}

// Workload is an assembled benchmark.
type Workload struct {
	Name    string
	Kind    Kind
	Config  Config
	Source  string
	Program *asm.Program
}

type entry struct {
	kind     Kind
	defIters int
	src      func(Config) string
}

var registry = map[string]entry{
	"a2time":   {Automotive, 28, a2timeSource},
	"puwmod":   {Automotive, 80, puwmodSource},
	"canrdr":   {Automotive, 50, canrdrSource},
	"ttsprk":   {Automotive, 44, ttsprkSource},
	"rspeed":   {Automotive, 60, rspeedSource},
	"tblook":   {Automotive, 16, tblookSource},
	"basefp":   {Automotive, 32, basefpSource},
	"bitmnp":   {Automotive, 4, bitmnpSource},
	"membench": {Synthetic, 16, membenchSource},
	"intbench": {Synthetic, 96, intbenchSource},
	"excerptA": {Excerpt, 1, excerptASource},
	"excerptB": {Excerpt, 1, excerptBSource},
}

// Names returns all workload names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Known reports whether name is a workload Build can assemble.
func Known(name string) bool {
	_, ok := registry[name]
	return ok
}

// AutomotiveNames returns the automotive benchmark names in the paper's
// Table 1 order followed by the remaining members.
func AutomotiveNames() []string {
	return []string{"puwmod", "canrdr", "ttsprk", "rspeed", "a2time", "tblook", "basefp", "bitmnp"}
}

// Table1Names returns the six benchmarks characterized in Table 1.
func Table1Names() []string {
	return []string{"puwmod", "canrdr", "ttsprk", "rspeed", "membench", "intbench"}
}

// SyntheticNames returns the synthetic benchmark names.
func SyntheticNames() []string { return []string{"membench", "intbench"} }

// Build assembles the named workload with the given configuration.
func Build(name string, cfg Config) (*Workload, error) {
	e, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown workload %q", name)
	}
	if cfg.Iterations <= 0 {
		cfg.Iterations = e.defIters
	}
	src := e.src(cfg)
	p, err := asm.Assemble(src, mem.RAMBase)
	if err != nil {
		return nil, fmt.Errorf("workloads: %s: %w", name, err)
	}
	return &Workload{Name: name, Kind: e.kind, Config: cfg, Source: src, Program: p}, nil
}

// Get assembles the named workload with its default configuration.
func Get(name string) (*Workload, error) { return Build(name, Config{}) }

// BuildRaw assembles an arbitrary "main" body under the full workload
// runtime (trap table, spill/fill handlers, harness, exit device). It is
// used by tests and examples that need custom programs with the standard
// environment.
func BuildRaw(mainBody string) (*asm.Program, error) {
	src := fullRuntime(mainBody, "\t.word 0\n"+stack(512), 1)
	return asm.Assemble(src, mem.RAMBase)
}

// NewMemory returns a fresh memory image loaded with the workload.
func (w *Workload) NewMemory() *mem.Memory {
	m := mem.NewMemory()
	m.LoadImage(w.Program.Origin, w.Program.Image)
	return m
}
