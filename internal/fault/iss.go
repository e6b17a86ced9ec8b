package fault

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/sparc"
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
//
// Cost: the emulator is the cheap model of the paper's §4.2, and the
// engine keeps it cheap by stepping only what diverges from the golden
// run, as the RTL engine does (checkpoint.go, readlog.go). The golden run
// is walked once per runner into a log of what every victim register
// reads at every step boundary, with a forkable rung every few steps
// (issLog). A forced bit — stuck-at, or an open line frozen at its charge
// — changes nothing at a boundary where the register already reads the
// forced value, so the faulted run is the golden run up to the first
// boundary where the log says they differ: none, and the verdict is the
// golden run's without a step; otherwise the run forks from the rung
// below that boundary. Runs that cannot differ — one victim bit forced to
// one value from one instant — share a verdict through the campaign's
// Verdicts table, and every fork executes the program image through one
// decode-once table (iss.Text). Options.NoCheckpoint selects the naive
// reference instead: a fresh emulator per experiment, stepped from reset,
// with no log, rung, table or predecoded text.

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

	// log is the golden walk, built lazily on first use and immutable
	// afterwards: every experiment of every campaign on this runner reads
	// it and forks from its rungs.
	logOnce sync.Once
	log     *issLog
	// verdicts is what the forced victim bits campaigns have activated so
	// far came to, each stepped once (see verdicts in batch.go).
	verdicts verdicts
	// engines keeps one emulator per worker for forks to restore in place.
	engines freeList[issEngine]

	met issMetrics
}

// issMetrics is the ISS engine's counter set; every handle is a no-op
// without a registry. All are exact for a fixed campaign at any worker
// count: a verdict is stepped once however many experiments share it.
type issMetrics struct {
	// experiments counts every classified experiment, whichever path
	// classified it.
	experiments *obs.Counter
	// steps counts emulator steps taken for experiments: the clean ones
	// from a rung (the reference: from reset) to where a run leaves the
	// golden one, and the faulted ones from there to the verdict.
	steps *obs.Counter
	// free, twin, known and stepped split experiments by how their verdict
	// was reached: read off the golden log without a step, copied from the
	// experiment of the same call that stepped the same forcing, copied from
	// an earlier call's on this runner, stepped.
	free, twin, known, stepped *obs.Counter
}

func newISSMetrics(r *obs.Registry) issMetrics {
	by := r.CounterVec("iss_engine_verdicts_total",
		"ISS experiments by how their verdict was reached: free (the golden log shows the fault never changes a register read), twin (copied from the same call's run of the same victim bit and value), known (copied from an earlier call's, kept in the runner's verdict table), stepped.", "path")
	return issMetrics{
		experiments: r.Counter("iss_engine_experiments_total",
			"Fault-injection experiments executed and classified by the ISS prediction engine."),
		steps: r.Counter("iss_engine_steps_total",
			"Emulator steps taken for ISS experiments, clean replay from a golden rung (or from reset) included."),
		free: by.With("free"), twin: by.With("twin"), known: by.With("known"), stepped: by.With("stepped"),
	}
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
	var rows []uint8 // the reference keeps no verdicts
	if !opts.NoCheckpoint {
		rows = victimBits
	}
	r := &ISSRunner{prog: p, opts: opts, cycleRef: cycleRef, met: newISSMetrics(opts.Obs), verdicts: newVerdicts(opts.Obs, rows)}
	r.baseImg = m.Snapshot()
	r.engines.max = runtime.GOMAXPROCS(0)
	cpu := r.newEngine(nil).cpu
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
	r.budget = faultedBudget(r.GoldenInsts)
	r.pulseTicks = r.opts.PulseCycles
	if cycleRef != 0 {
		if r.pulseTicks = r.mapTicks(r.opts.PulseCycles); r.pulseTicks == 0 {
			r.pulseTicks = 1
		}
	}
	return r, nil
}

// issEngine is one emulator with its bus and the golden comparator hooked
// onto it: built per experiment by the reference, kept per worker and
// re-pointed at a rung per fork by the production engine.
type issEngine struct {
	cpu *iss.CPU
	bus *mem.Bus
	cmp comparator
}

// newEngine builds an emulator at reset over a copy-on-write fork of the
// pristine program image, executing through text when it is non-nil.
func (r *ISSRunner) newEngine(text *iss.Text) *issEngine {
	eng := &issEngine{bus: mem.NewBus(r.baseImg.Fork()), cmp: comparator{mismatchAt: -1}}
	eng.cpu = iss.New(eng.bus, r.prog.Entry)
	if text != nil {
		eng.cpu.UseText(text)
	}
	eng.cmp.watch(&r.golden, eng.bus, func() uint64 { return eng.cpu.Icount })
	return eng
}

// mapTicks converts an externally-timed instant into an instruction
// index: the identity in native mode, the golden-length ratio when the
// engine is pinned to the RTL cycle timebase. Golden runs are bounded
// by the 2e8-instruction budget, so for an instant inside the run or a
// pulse width of at most MaxPulseCycles the product cannot overflow.
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
func (r *ISSRunner) Nodes(target Target) []NodeInfo { return Nodes(target) }

// ScheduleTransients assigns transient experiments their instants over
// [fixed instant, golden length) in the engine's external timebase,
// keyed by (seed, absolute index). When pinned to the RTL timebase the
// window and sampler match the RTL engine's exactly, so both engines
// schedule the byte-identical instants for the same experiment list.
func (r *ISSRunner) ScheduleTransients(exps []Experiment, seed int64) {
	scheduleTransients(exps, seed, r.injectExt, r.GoldenTicks())
}

// Checkpointed reports whether forking skipped a warm-up prefix: the
// engine forks and the fixed injection instant lies past reset. Like the
// RTL runner's it is a wire field, frozen with the outcome encoding, and
// not the engine switch — that is NoCheckpoint alone.
func (r *ISSRunner) Checkpointed() bool {
	return !r.opts.NoCheckpoint && r.injectAt != 0
}

// PrepareCheckpoint walks the golden run eagerly (a no-op for the
// reference, or once the log exists). Benchmarks call it to keep the
// one-time walk out of timed regions.
func (r *ISSRunner) PrepareCheckpoint() { r.goldenLog() }

// issRungSpacing is the base distance between rungs in steps: it bounds
// the clean replay of a fork (fewer than one spacing of steps). issMaxRungs
// caps the rung count — a rung is a copy of the CPU value, about 1.5 KB,
// and a cached runner pins its log — so a golden run past 16,384 steps
// widens the spacing in multiples of issRungSpacing instead.
const (
	issRungSpacing = 32
	issMaxRungs    = 512
)

// issLog is the golden run as data: what each victim register reads at
// every step boundary, forkable state every stride steps, and the program
// image decoded once. Everything is indexed by Step call, not by Icount:
// an annulled delay slot and a trapped instruction are boundaries at which
// a forcing is re-applied, and neither advances Icount. Boundary s is the
// state before Step call s; the run takes steps calls, so boundaries
// 0..steps-1 are the ones a fault can be applied or re-applied at.
type issLog struct {
	steps uint32
	// stalls lists, ascending, the Step calls that left Icount where it
	// was; boundary maps an instant onto a boundary through it.
	stalls []uint32
	// regs[r] is the change list of what cpu.Reg(r) reads — the register
	// of the window current at that boundary, which is what a victim
	// names, so a window switch is a change of up to 24 of them.
	regs   [32]regLog
	stride uint32
	rungs  []issRung
	// text is the program image decoded once, less every word the golden
	// run itself stores into: those are struck out for good, so that a
	// fork from any rung may start with no word marked stored.
	text *iss.Text
}

// regLog holds one register's reads as runs: it reads val[i] from
// boundary at[i] up to boundary at[i+1].
type regLog struct {
	at  []uint32
	val []uint32
}

// issRung is the forkable golden state at one boundary.
type issRung struct {
	cpu iss.CPU // Bus nil; pointed at the forking engine's
	// img is shared with the rung before when the golden run wrote nothing
	// in between.
	img *mem.Image
	// writes is the index of the next golden off-core write.
	writes int
}

// goldenLog returns the lazily built golden log, or nil for the reference.
func (r *ISSRunner) goldenLog() *issLog {
	if r.opts.NoCheckpoint {
		return nil
	}
	r.logOnce.Do(func() { r.log = r.buildLog() })
	return r.log
}

// buildLog re-runs the clean emulator once, from reset to exit, logging
// register reads and freezing rungs. This is the only time the golden run
// is stepped for its state, however many campaigns the runner serves.
func (r *ISSRunner) buildLog() *issLog {
	lg := &issLog{text: iss.Predecode(r.prog.Origin, r.prog.Image)}
	lg.stride = issRungSpacing * uint32(max(1, (r.GoldenInsts+issRungSpacing*issMaxRungs-1)/(issRungSpacing*issMaxRungs)))
	eng := r.newEngine(lg.text)
	cpu, bus := eng.cpu, eng.bus
	for ; cpu.Status() == iss.StatusRunning; lg.steps++ {
		s := lg.steps
		for reg := 1; reg < 32; reg++ {
			l := &lg.regs[reg]
			if v := cpu.Reg(reg); s == 0 || v != l.val[len(l.val)-1] {
				l.at, l.val = append(l.at, s), append(l.val, v)
			}
		}
		if s%lg.stride == 0 {
			g := issRung{cpu: *cpu, writes: len(bus.Trace.Writes)}
			g.cpu.Bus = nil
			if n := len(lg.rungs); n > 0 && lg.rungs[n-1].writes == g.writes {
				g.img = lg.rungs[n-1].img
			} else {
				g.img = bus.Mem.Snapshot()
			}
			lg.rungs = append(lg.rungs, g)
		}
		before := cpu.Icount
		cpu.Step()
		if cpu.Icount == before {
			lg.stalls = append(lg.stalls, s)
		}
	}
	for i := range lg.text.Insts {
		if bus.Stored(uint32(i)) {
			lg.text.Insts[i] = sparc.Inst{}
		}
	}
	return lg
}

// boundary returns the first boundary at which Icount has reached at —
// where the reference, stepping clean while Icount < at, applies a fault
// of that instant. Icount at boundary s is s less the stalls before s, so
// the answer is at plus the stalls taken while Icount was still below at.
// A result of lg.steps or more means the golden run exits first.
func (lg *issLog) boundary(at uint64) uint64 {
	j := sort.Search(len(lg.stalls), func(k int) bool { return uint64(lg.stalls[k])-uint64(k) >= at })
	return at + uint64(j)
}

// run returns the index of the run of l that covers boundary s.
func (l *regLog) run(s uint32) int {
	return sort.Search(len(l.at), func(i int) bool { return l.at[i] > s }) - 1
}

// activation returns the first boundary at or after s at which victim v
// reads a bit other than forced — the first at which forcing it changes
// anything — or false when the golden run never does.
func (lg *issLog) activation(v victim, forced uint32, s uint32) (uint32, bool) {
	l := &lg.regs[v.reg]
	for i := l.run(s); i < len(l.at); i++ {
		if l.val[i]>>v.bit&1 != forced {
			return max(l.at[i], s), true
		}
	}
	return 0, false
}

// fork puts eng on the golden run at boundary s < lg.steps: the rung at or
// below s restored in place — CPU value, memory re-pointed at the rung's
// image, bus and comparator as an uninterrupted run's would be there — and
// the steps between replayed clean. It returns the steps replayed.
func (lg *issLog) fork(eng *issEngine, s uint32) uint64 {
	k := min(s/lg.stride, uint32(len(lg.rungs)-1))
	g := &lg.rungs[k]
	g.img.ForkInto(eng.bus.Mem)
	*eng.cpu = g.cpu
	eng.cpu.Bus = eng.bus
	eng.bus.Reset()
	eng.cmp = comparator{mismatchAt: -1, idx: g.writes}
	for i := k * lg.stride; i < s; i++ {
		eng.cpu.Step()
	}
	return uint64(s - k*lg.stride)
}

// victim is the architectural injection point an RTL node maps onto: a
// register (g1-g7 or the current window's r8-r31 — never g0, which
// reads zero architecturally) and a bit position. The register is a
// fixed hash of the node's net so the same node perturbs the same state
// in every process — another face of the determinism rule.
type victim struct {
	reg int
	bit uint
}

// victimBits is the width of each register: the ISS verdict table's rows.
var victimBits = bytes.Repeat([]uint8{32}, 32)

// victimOf returns n's victim: the design table's register for n's net,
// hashed once per process, or for a node on no net of the design — or
// hand-built, with no net id — the hash now.
func victimOf(n *NodeInfo) victim {
	v := victim{bit: uint(n.Node.Bit) & 31}
	if n.facts&factsSet != 0 && n.net >= 0 {
		v.reg = int(design().victims[n.net])
	} else {
		v.reg = int(victimReg(strHash(n.Node.Name), n.Node.Word))
	}
	return v
}

// victimReg is the register the bits of a net hit: name is strHash of the
// net's name, word its word in a memory array.
func victimReg(name uint64, word int) uint8 {
	return uint8(1 + splitmix64(name+uint64(word)*0x9e3779b97f4a7c15)%31)
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

// forcedBit returns the value a model holds the victim bit at, was being
// the bit at the instant: the constant of a stuck-at, the charge an open
// line freezes, the complement a pulse drives. An upset holds nothing.
func forcedBit(model rtl.FaultModel, was uint32) uint32 {
	switch model {
	case rtl.StuckAt0:
		return 0
	case rtl.StuckAt1:
		return 1
	case rtl.SETPulse:
		return was ^ 1
	}
	return was
}

// armAt returns the externally-timed instant at which the experiment's
// fault is applied: the sampled per-experiment instant for transient
// models, the fixed instant otherwise.
func (r *ISSRunner) armAt(e *Experiment) uint64 {
	if e.Model.Transient() {
		return e.AtCycle
	}
	return r.injectExt
}

// RunOne executes a single injection experiment on the emulator; see
// resolve.
func (r *ISSRunner) RunOne(e Experiment) Result {
	var res Result
	r.resolve(&e, r.verdicts.begin(), &res, nil)
	return res
}

// resolve classifies one experiment of call number call (see verdicts) into
// res, on a worker of crew c (nil outside a campaign), which it wakes before
// any run that takes an emulator. The reference builds a fresh emulator, steps it clean from reset to the
// experiment's instant and hands it to finish. The production engine reads
// the golden log first: where the instant lies (boundary), what the victim
// bit reads there — the charge an open line freezes, the value a pulse
// inverts — and, for a forced bit, the first boundary at which the forcing
// changes anything (activation). A run that never leaves the golden one has
// the golden verdict; a forced bit forks from the rung below the boundary
// where it leaves, once per runner and distinct (victim bit, forced value):
// RTL nodes that hash onto one victim, and an open line beside the stuck-at
// of its charge, are one run. A transient forks from its own sampled
// instant. Fault, Unit and InjectAt are always the experiment's own.
func (r *ISSRunner) resolve(e *Experiment, call uint64, res *Result, c *crew) {
	r.met.experiments.Inc()
	atExt := r.armAt(e)
	at := r.mapTicks(atExt)
	v := victimOf(&e.Node)
	// The golden run's verdict, until a run says otherwise.
	res.Fault, res.Unit, res.Outcome = rtl.Fault{Node: e.Node.Node, Model: e.Model}, e.Node.Unit, OutcomeNoEffect
	res.Latency, res.Cycles, res.InjectAt = -1, r.GoldenInsts, atExt
	lg := r.goldenLog()
	if lg == nil {
		c.wake()
		eng := r.newEngine(nil)
		var clean uint64
		for ; eng.cpu.Icount < at && eng.cpu.Status() == iss.StatusRunning; clean++ {
			eng.cpu.Step()
		}
		r.finish(res, eng, e.Model, v, forcedBit(e.Model, v.read(eng.cpu)), at, clean)
		return
	}
	b := lg.boundary(at)
	if b >= uint64(lg.steps) {
		r.met.free.Inc() // the golden run exits before the instant
		return
	}
	s := uint32(b)
	l := &lg.regs[v.reg]
	forced := forcedBit(e.Model, l.val[l.run(s)]>>v.bit&1)
	if e.Model.Transient() {
		r.stepFrom(lg, s, res, e.Model, v, forced, at, c)
		return
	}
	s, ok := lg.activation(v, forced, s)
	if !ok {
		r.met.free.Inc()
		return
	}
	switch r.verdicts.once(int32(v.reg), int(v.bit), forced == 1, call, res, func() { r.stepFrom(lg, s, res, e.Model, v, forced, at, c) }) {
	case verdictTwin:
		r.met.twin.Inc()
	case verdictKnown:
		r.met.known.Inc()
	}
}

// stepFrom forks a kept emulator onto the golden run at boundary s and
// finishes the experiment on it, waking the rest of crew c first.
func (r *ISSRunner) stepFrom(lg *issLog, s uint32, res *Result, model rtl.FaultModel, v victim, forced uint32, at uint64, c *crew) {
	c.wake()
	eng := r.engines.get()
	if eng == nil {
		eng = r.newEngine(lg.text)
	}
	r.finish(res, eng, model, v, forced, at, lg.fork(eng, s))
	r.engines.put(eng)
}

// finish applies the fault model at the victim of an emulator standing at
// its injection instant — or, for a forced bit, at any later boundary up to
// its activation — and runs it to classification. Permanent models re-force
// the bit (forcedBit) before every instruction; a BitFlip mutates state
// once; a SETPulse forces for the pulse window and then releases. Latency
// and run length are in instructions, relative to at; clean is the number
// of steps it took to bring the emulator here, booked with the rest.
func (r *ISSRunner) finish(res *Result, eng *issEngine, model rtl.FaultModel, v victim, forced uint32, at, clean uint64) {
	r.met.stepped.Inc()
	cpu := eng.cpu
	holdUntil := uint64(math.MaxUint64)
	switch model {
	case rtl.BitFlip:
		v.flip(cpu)
		holdUntil = 0
	case rtl.SETPulse:
		holdUntil = cpu.Icount + r.pulseTicks
	}
	steps := clean
	for ; cpu.Status() == iss.StatusRunning && cpu.Icount < r.budget && eng.cmp.mismatchAt < 0; steps++ {
		if cpu.Icount < holdUntil {
			v.force(cpu, forced)
		}
		cpu.Step()
	}
	r.met.steps.Add(float64(steps))
	classifyRun(res, &r.golden, cpu.Status(), cpu.Icount, eng.bus, &eng.cmp, at)
}

// Campaign runs the experiments across workers and returns results in
// input order.
func (r *ISSRunner) Campaign(exps []Experiment, workers int) []Result {
	results, _, _ := r.CampaignStopContext(context.Background(), exps, workers, nil, nil)
	return results
}

// CampaignStopContext runs the experiments across workers under ctx and
// returns results in input order: CampaignSink collected into an array, as
// for the RTL engine (collect).
func (r *ISSRunner) CampaignStopContext(ctx context.Context, exps []Experiment, workers int,
	tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error) {
	return collect(ctx, r, exps, workers, tap, stop)
}

// CampaignSink runs the experiments across workers under the package's one
// sink/stop/cancel loop (see dispatch), one experiment at a time like the
// RTL engine.
func (r *ISSRunner) CampaignSink(ctx context.Context, exps []Experiment, workers int,
	sink func(i int, res *Result), stop func(done, failures int) bool) error {
	call := r.verdicts.begin()
	return dispatch(ctx, len(exps), workers, stop, func(i int, res *Result, c *crew) { r.resolve(&exps[i], call, res, c) }, sink)
}
