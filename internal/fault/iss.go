package fault

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
)

// This file implements the ISS campaign engine: a CampaignEngine over
// the functional emulator in internal/iss. The paper's central claim is
// that ISS-level injection predicts RTL-level failure probability well
// enough to calibrate via Equation (1); this engine is the prediction
// side of that trade. It runs the same experiment list as the RTL
// engine — same node identities, same fault models, same off-core
// golden-trace classification — but executes each run on the emulator,
// which has no RTL signals to force. Every RTL node is therefore mapped
// onto an architectural victim (a register bit, chosen deterministically
// from the node's identity) and the fault model's semantics are applied
// there: a coarse microarchitectural abstraction, cheap and
// deterministic, whose prediction error is exactly what the hybrid
// router's RTL audits measure and bound.
//
// Timebase: the emulator has no clock, so ticks are executed
// instructions. A standalone ISSRunner interprets every instant
// (InjectAtCycle, transient schedules, budgets, latencies) in
// instructions. Under the hybrid router the engine is instead pinned to
// the RTL cycle timebase (cycleRef > 0): experiment instants arrive in
// RTL cycles and are mapped onto instruction indices by the ratio of
// the two golden-run lengths, and reported Result.InjectAt echoes the
// RTL-cycle input so hybrid outcome rows stay in one currency.

// ISSRunner executes fault-injection experiments on the instruction-set
// simulator. It satisfies CampaignEngine; see Runner for the RTL
// counterpart.
type ISSRunner struct {
	prog   *asm.Program
	opts   Options
	golden mem.Trace
	// GoldenInsts is the clean run's length in executed instructions —
	// the ISS engine's timebase.
	GoldenInsts uint64
	// GoldenStatus is the clean run's terminal status.
	GoldenStatus iss.Status
	budget       uint64

	// cycleRef, when nonzero, pins the engine to the RTL cycle timebase:
	// experiment instants are RTL cycles out of a golden run of cycleRef
	// cycles, mapped onto instruction indices by the golden-length
	// ratio. Zero means instants are instruction indices already.
	cycleRef uint64
	// injectAt is the fixed injection instant in instructions;
	// injectExt is the same instant in the externally visible timebase
	// (RTL cycles when pinned, instructions otherwise).
	injectAt  uint64
	injectExt uint64
	// pulseTicks is the SETPulse hold window in instructions.
	pulseTicks uint64

	baseImg *mem.Image

	ckptOnce sync.Once
	ckpt     *issCheckpoint

	nodeLists nodeLists

	met issMetrics
}

type issMetrics struct{ experiments *obs.Counter }

func newISSMetrics(r *obs.Registry) issMetrics {
	return issMetrics{experiments: r.Counter("iss_engine_experiments_total",
		"Fault-injection experiments executed and classified by the ISS prediction engine.")}
}

// NewISSRunner builds the golden reference by running the program on a
// clean emulator. cycleRef pins the engine to an external RTL cycle
// timebase (the RTL golden run's length in cycles) and fixedCycle is
// then the fixed injection instant in that timebase; both zero leave
// the engine in its native instruction timebase, where Options
// instants are interpreted as instruction indices.
func NewISSRunner(p *asm.Program, opts Options, cycleRef, fixedCycle uint64) (*ISSRunner, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	r := &ISSRunner{prog: p, opts: opts, cycleRef: cycleRef, met: newISSMetrics(opts.Obs)}
	r.baseImg = m.Snapshot()
	cpu := r.freshCPU()
	st := cpu.Run(200_000_000)
	if st != iss.StatusExited {
		return nil, fmt.Errorf("fault: ISS golden run did not exit: %v", st)
	}
	r.golden = cpu.Bus.Trace
	r.GoldenInsts = cpu.Icount
	r.GoldenStatus = st
	switch {
	case cycleRef != 0:
		r.injectExt = fixedCycle
		r.injectAt = r.mapTicks(fixedCycle)
	case opts.InjectAtFraction > 0:
		r.injectAt = uint64(opts.InjectAtFraction * float64(r.GoldenInsts))
		r.injectExt = r.injectAt
	default:
		r.injectAt = opts.InjectAtCycle
		r.injectExt = r.injectAt
	}
	r.opts.InjectAtCycle = r.injectExt
	r.budget = r.GoldenInsts*r.opts.BudgetFactor + r.opts.ExtraCycles
	r.pulseTicks = r.opts.PulseCycles
	if cycleRef != 0 {
		if r.pulseTicks = r.mapTicks(r.opts.PulseCycles); r.pulseTicks == 0 {
			r.pulseTicks = 1
		}
	}
	return r, nil
}

func (r *ISSRunner) freshCPU() *iss.CPU {
	return iss.New(mem.NewBus(r.baseImg.Fork()), r.prog.Entry)
}

// mapTicks converts an externally-timed instant into an instruction
// index: the identity in native mode, the golden-length ratio when the
// engine is pinned to the RTL cycle timebase. Golden runs are bounded
// by the 2e8-instruction budget, so the product cannot overflow.
func (r *ISSRunner) mapTicks(c uint64) uint64 {
	if r.cycleRef == 0 {
		return c
	}
	return c * r.GoldenInsts / r.cycleRef
}

// Golden returns the clean off-core trace.
func (r *ISSRunner) Golden() *mem.Trace { return &r.golden }

// GoldenTicks returns the golden run length in the engine's external
// timebase: RTL cycles when pinned, executed instructions otherwise.
func (r *ISSRunner) GoldenTicks() uint64 {
	if r.cycleRef != 0 {
		return r.cycleRef
	}
	return r.GoldenInsts
}

// Nodes enumerates the injectable nodes of a target — the identical
// list the RTL engine yields, because node identity is a property of
// the design, not the engine.
func (r *ISSRunner) Nodes(target Target) []NodeInfo {
	return r.nodeLists.nodes(r.prog.Entry, target)
}

// ScheduleTransients assigns transient experiments their instants over
// [fixed instant, golden length) in the engine's external timebase,
// keyed by (seed, absolute index). When pinned to the RTL timebase the
// window and sampler match the RTL engine's exactly, so both engines
// schedule the byte-identical instants for the same experiment list.
func (r *ISSRunner) ScheduleTransients(exps []Experiment, seed int64) {
	scheduleTransients(exps, seed, r.injectExt, r.GoldenTicks())
}

// issCheckpoint is the forkable golden-run state at the fixed injection
// instant: the full architectural state (the CPU is a value type apart
// from its bus), the memory image, and the off-core trace position.
type issCheckpoint struct {
	cpu      iss.CPU // Bus and OnInst nilled; restored per fork
	img      *mem.Image
	writes   int
	exited   bool
	exitCode uint32
}

// Checkpointed reports whether experiments fork from the golden-run
// checkpoint instead of re-emulating from reset.
func (r *ISSRunner) Checkpointed() bool {
	return !r.opts.NoCheckpoint && r.injectAt != 0
}

// PrepareCheckpoint captures the checkpoint eagerly (benchmarks call it
// to keep the one-time warm-up out of timed regions).
func (r *ISSRunner) PrepareCheckpoint() { r.checkpoint() }

func (r *ISSRunner) checkpoint() *issCheckpoint {
	if !r.Checkpointed() {
		return nil
	}
	r.ckptOnce.Do(func() { r.ckpt = r.capture() })
	return r.ckpt
}

func (r *ISSRunner) capture() *issCheckpoint {
	cpu := r.freshCPU()
	bus := cpu.Bus
	for cpu.Icount < r.injectAt && cpu.Status() == iss.StatusRunning {
		cpu.Step()
	}
	snap := *cpu
	snap.Bus, snap.OnInst = nil, nil
	return &issCheckpoint{
		cpu:      snap,
		img:      bus.Mem.Snapshot(),
		writes:   len(bus.Trace.Writes),
		exited:   bus.Trace.Exited,
		exitCode: bus.Trace.ExitCode,
	}
}

// victim is the architectural injection point an RTL node maps onto: a
// register (g1-g7 or the current window's r8-r31 — never g0, which
// reads zero architecturally) and a bit position. The mapping is a
// fixed hash of the node's identity so the same node perturbs the same
// state in every process — another face of the determinism rule.
type victim struct {
	reg int
	bit uint
}

func victimOf(n rtl.Node) victim {
	h := splitmix64(strHash(n.Name) + uint64(n.Word)*0x9e3779b97f4a7c15)
	return victim{reg: 1 + int(h%31), bit: uint(n.Bit) & 31}
}

// strHash is FNV-1a over the node name — stable, dependency-free, and
// frozen for the same reason splitmix64 is.
func strHash(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

func (v victim) read(cpu *iss.CPU) uint32 { return cpu.Reg(v.reg) >> v.bit & 1 }

func (v victim) force(cpu *iss.CPU, bit uint32) {
	old := cpu.Reg(v.reg)
	cpu.SetReg(v.reg, old&^(1<<v.bit)|bit<<v.bit)
}

func (v victim) flip(cpu *iss.CPU) {
	cpu.SetReg(v.reg, cpu.Reg(v.reg)^(1<<v.bit))
}

// armAt returns the externally-timed instant at which the experiment's
// fault is applied: the sampled per-experiment instant for transient
// models, the fixed instant otherwise.
func (r *ISSRunner) armAt(e Experiment) uint64 {
	if e.Model.Transient() {
		return e.AtCycle
	}
	return r.injectExt
}

// RunOne executes a single injection experiment on the emulator. The
// structure mirrors Runner.RunOne: fork from the golden checkpoint when
// the instant allows it, otherwise re-emulate from reset, then advance
// to the instant, apply the fault model at the node's architectural
// victim, and classify against the golden off-core trace.
func (r *ISSRunner) RunOne(e Experiment) Result {
	atExt := r.armAt(e)
	at := r.mapTicks(atExt)
	ck := r.checkpoint()
	if ck != nil && at < r.injectAt {
		ck = nil // transient sampled before the fork point
	}
	var cpu *iss.CPU
	start := 0
	if ck != nil {
		c := ck.cpu
		cpu = &c
		cpu.Bus = mem.NewBus(ck.img.Fork())
		cpu.Bus.Trace.Exited, cpu.Bus.Trace.ExitCode = ck.exited, ck.exitCode
		start = ck.writes
	} else {
		cpu = r.freshCPU()
	}
	c := watchTrace(&r.golden, cpu.Bus, func() uint64 { return cpu.Icount }, start)
	return r.finish(cpu, c, e, at, atExt)
}

// finish advances the clean emulation to the injection instant, applies
// the fault model at the node's victim and runs to classification.
// Permanent models re-force the victim bit before every instruction; an
// open line freezes the bit at the value it carried at the instant; a
// BitFlip mutates state once; a SETPulse forces the complement for the
// pulse window and then releases. Latency and run length are computed
// in instructions and the reported InjectAt echoes the external instant.
func (r *ISSRunner) finish(cpu *iss.CPU, c *comparator, e Experiment, at, atExt uint64) Result {
	r.met.experiments.Inc()
	res := Result{
		Fault:    rtl.Fault{Node: e.Node.Node, Model: e.Model},
		Unit:     e.Node.Unit,
		Latency:  -1,
		InjectAt: atExt,
	}
	for cpu.Icount < at && cpu.Status() == iss.StatusRunning {
		cpu.Step()
	}
	v := victimOf(e.Node.Node)
	var hold func()
	holdUntil := uint64(math.MaxUint64)
	switch e.Model {
	case rtl.StuckAt0:
		hold = func() { v.force(cpu, 0) }
	case rtl.StuckAt1:
		hold = func() { v.force(cpu, 1) }
	case rtl.OpenLine:
		frozen := v.read(cpu)
		hold = func() { v.force(cpu, frozen) }
	case rtl.BitFlip:
		v.flip(cpu)
	case rtl.SETPulse:
		glitch := v.read(cpu) ^ 1
		hold = func() { v.force(cpu, glitch) }
		holdUntil = cpu.Icount + r.pulseTicks
	}
	for cpu.Status() == iss.StatusRunning && cpu.Icount < r.budget &&
		(r.opts.NoEarlyExit || c.mismatchAt < 0) {
		if hold != nil && cpu.Icount < holdUntil {
			hold()
		}
		cpu.Step()
	}
	classifyRun(&res, &r.golden, cpu.Status(), cpu.Icount, cpu.Bus, c, at)
	res.InjectAt = atExt
	return res
}

// Campaign runs the experiments across workers and returns results in
// input order.
func (r *ISSRunner) Campaign(exps []Experiment, workers int) []Result {
	results, _, _ := r.CampaignStopContext(context.Background(), exps, workers, nil, nil)
	return results
}

// CampaignStopContext runs the experiments across workers under the
// package's one tap/stop/cancel loop (see dispatch). The ISS engine has no
// bit-parallel mode, so the dispatch granule is always one experiment.
func (r *ISSRunner) CampaignStopContext(ctx context.Context, exps []Experiment, workers int,
	tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error) {
	return dispatch(ctx, len(exps), len(exps), workers, tap, stop, func(i int, deliver func(int, Result)) {
		deliver(i, r.RunOne(exps[i]))
	})
}

// CampaignShared is CampaignStopContext: every ISS experiment is simulated,
// so there is no verdict to share.
func (r *ISSRunner) CampaignShared(ctx context.Context, exps []Experiment, workers int,
	tap func(i int, res Result), stop func(done, failures int) bool, _ *Verdicts) ([]Result, []bool, error) {
	return r.CampaignStopContext(ctx, exps, workers, tap, stop)
}
