// Package core is the public API of the ISS-RTL correlation library, a
// reproduction of "Analysis and RTL Correlation of Instruction Set
// Simulators for Automotive Microcontroller Robustness Verification"
// (Espinosa et al., DAC 2015).
//
// The library provides, end to end:
//
//   - a SPARC V8 functional instruction set simulator (the cheap,
//     early-design-stage model),
//   - a LEON3-like RTL microcontroller model with per-bit fault injection
//     on all signals of its integer unit (IU) and cache memory (CMEM),
//   - the EEMBC-Autobench-workalike workload suite of the paper,
//   - the instruction-diversity metric and the Equation-(1) failure
//     probability model,
//   - campaign orchestration reproducing every table and figure of the
//     paper's evaluation, and
//   - an async campaign job service (NewJobService: SubmitCampaign /
//     JobStatus / WatchProgress) with duplicate coalescing, a
//     content-addressed result cache and per-granule cancellation — the
//     same scheduler cmd/faultserverd serves over HTTP/NDJSON.
//
// # Campaign engine
//
// Fault-injection campaigns fork every experiment from a golden-run
// ladder: the fault-free run is simulated exactly once more after the
// golden run, its complete RTL state (pipeline registers, register-file
// windows, cache arrays, architectural counters) is frozen together with
// a copy-on-write image of program memory at the injection instant and
// at a fixed spacing from there to program exit, and each of the
// campaign's thousands of experiments resumes from the snapshot at or
// below the cycle its fault arrives; a transient upset that has been
// overwritten is finalized at the next snapshot instead of being
// simulated to program exit.
//
// From the ladder, experiments run bit-parallel (PPSFP): the engine
// runs fault universes as lanes — one experiment each, the dispatch
// granule — over a log of which bit values the golden run read every net
// with (one witnessed walk per net per runner), finalizes the lanes that
// provably never activate as no-effect without simulating them, and
// re-runs only the activated lanes scalar from the nearest frozen golden
// state (DESIGN.md §10). Batching is invisible to result encodings,
// content addresses and shard merges.
//
// There is one engine selector. CampaignRequest.NoCheckpoint (request field
// no_checkpoint, `faultcampaign -no-checkpoint`, fault.Options.NoCheckpoint)
// swaps the production engine for the deliberately naive reference — a
// fresh core per experiment, simulated from reset, one scalar run each —
// whose results are bit-identical (same outcome sequence, latencies and
// Pf) at a much higher cost; it exists to check the engine and to
// measure its speedup. A job request's older no_batch field is still
// accepted and echoed, and selects nothing.
//
// Quick start:
//
//	w, _ := core.BuildWorkload("rspeed", core.WorkloadConfig{Iterations: 2})
//	prof, _ := core.MeasureDiversity(w)      // ISS run, Table-1 style profile
//	res, _ := core.ExecuteCampaign(context.Background(), core.CampaignRequest{
//	    Workload: "rspeed", Iterations: 2, Models: []string{"sa1"},
//	    Nodes: 256, Seed: 1,
//	}, 0)
//	fmt.Printf("diversity=%d Pf=%.1f%%\n", prof.Diversity, 100*res.Pf)
package core

import (
	"repro/internal/asm"
	"repro/internal/campaign"
	"repro/internal/diversity"
	"repro/internal/fault"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/sparc"
	"repro/internal/workloads"
)

// Re-exported building blocks. The aliases give external users access to
// the full functionality of the internal packages through a single import.
type (
	// Workload is an assembled benchmark program.
	Workload = workloads.Workload
	// WorkloadConfig selects iteration count and input dataset.
	WorkloadConfig = workloads.Config
	// Program is a loadable SPARC V8 memory image.
	Program = asm.Program
	// Profile is a Table-1-style workload characterization.
	Profile = diversity.Profile
	// FaultModel is a permanent fault model.
	FaultModel = rtl.FaultModel
	// Fault is a fault model applied at an RTL node.
	Fault = rtl.Fault
	// Node identifies one injectable RTL bit.
	Node = rtl.Node
	// Target selects IU or CMEM injection.
	Target = fault.Target
	// Unit is a microcontroller functional unit.
	Unit = sparc.Unit
	// ISS is the functional instruction set simulator.
	ISS = iss.CPU
	// RTL is the LEON3-like RTL core.
	RTL = leon3.Core
	// Status is a simulator's terminal state.
	Status = iss.Status
)

// Fault models and targets. StuckAt0/StuckAt1/OpenLine are the paper's
// permanent models; BitFlip (SEU) and SETPulse (transient glitch) are the
// transient extensions, whose injection instants are sampled per
// experiment from the campaign seed.
const (
	StuckAt0 = rtl.StuckAt0
	StuckAt1 = rtl.StuckAt1
	OpenLine = rtl.OpenLine
	BitFlip  = rtl.BitFlip
	SETPulse = rtl.SETPulse

	TargetIU   = fault.TargetIU
	TargetCMEM = fault.TargetCMEM
)

// WorkloadNames lists the bundled benchmarks.
func WorkloadNames() []string { return workloads.Names() }

// BuildWorkload assembles a bundled benchmark.
func BuildWorkload(name string, cfg WorkloadConfig) (*Workload, error) {
	return workloads.Build(name, cfg)
}

// AssembleProgram assembles arbitrary SPARC V8 source at the RAM base.
func AssembleProgram(src string) (*Program, error) {
	return asm.Assemble(src, mem.RAMBase)
}

// NewISS builds a functional simulator loaded with the program.
func NewISS(p *Program) *ISS {
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	return iss.New(mem.NewBus(m), p.Entry)
}

// NewRTL builds an RTL core loaded with the program.
func NewRTL(p *Program) *RTL {
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	return leon3.New(mem.NewBus(m), p.Entry)
}

// MeasureDiversity runs the workload on the ISS and returns its profile
// (instruction counts, diversity, per-unit diversity Dm).
func MeasureDiversity(w *Workload) (Profile, error) {
	return diversity.Measure(w.Name, w.Program, 100_000_000)
}

// PredictPf estimates a workload's failure probability from its ISS
// profile alone, using the Equation-(1) area-weighted model with the
// fitted per-unit log coefficients (a, b). areaWeights typically comes
// from AreaWeights(TargetIU).
func PredictPf(prof Profile, areaWeights map[Unit]float64, a, b float64) float64 {
	pmf := diversity.PredictPmf(prof.UnitDiversity, a, b)
	return diversity.CombinePf(areaWeights, pmf)
}

// AreaWeights returns alpha_m for the target: each functional unit's share
// of the RTL's injectable nodes (the paper's area fraction proxy).
func AreaWeights(target Target) map[Unit]float64 { return campaign.AreaWeights(target) }

// The reproduction of the paper's evaluation — Table 1, Figures 3-7, the
// simulation-time comparison, Equation (1), the transient extensions and the
// ablations A2-A4 — is one list of artifacts, each rendered in the paper's
// layout (cmd/correlate prints them). See package repro/internal/campaign
// for the result types.
type (
	// ExperimentOptions tunes campaign cost versus precision.
	ExperimentOptions = campaign.Options
	// Artifact is one entry of the reproduction: its correlate -exp name and
	// how to produce it.
	Artifact = campaign.Artifact
)

// Artifacts lists every artifact of the reproduction, in the order
// correlate renders them.
func Artifacts() []Artifact { return campaign.Artifacts() }
