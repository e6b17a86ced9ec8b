// Package fault implements the RTL fault-injection framework of the
// reproduction: enumeration and sampling of injection nodes over the IU
// and CMEM hierarchies, single-fault experiment execution with early-exit
// golden-trace comparison at the off-core boundary, and parallel campaign
// orchestration.
//
// The experiment design follows the paper's §4.1: single permanent
// hardware faults (stuck-at-0, stuck-at-1, open-line) applied to RTL
// signals at a fixed injection instant; any mismatch in the off-core
// write stream — the point where light-lockstep cores compare — is a
// system failure. Beyond the paper's scope, the same machinery executes
// transient faults (rtl.BitFlip single-event upsets and rtl.SETPulse
// glitches) whose injection instants are sampled deterministically per
// experiment by ScheduleTransients.
package fault

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// Target selects the microcontroller unit whose nodes are injected.
type Target int

// Injection targets.
const (
	TargetIU Target = iota
	TargetCMEM
)

func (t Target) String() string {
	if t == TargetCMEM {
		return "CMEM"
	}
	return "IU"
}

// Prefix returns the RTL hierarchy prefix of the target.
func (t Target) Prefix() string {
	if t == TargetCMEM {
		return "cmem."
	}
	return "iu."
}

// Outcome classifies one injection experiment.
type Outcome int

// Experiment outcomes. Everything except OutcomeNoEffect manifests at the
// off-core boundary and counts as a failure in Pf.
const (
	OutcomeNoEffect  Outcome = iota
	OutcomeMismatch          // off-core write differed from the golden run
	OutcomeTruncated         // program ended with missing or extra writes
	OutcomeErrorMode         // processor entered error mode
	OutcomeHang              // cycle budget exhausted without exit
)

func (o Outcome) String() string {
	switch o {
	case OutcomeNoEffect:
		return "no-effect"
	case OutcomeMismatch:
		return "mismatch"
	case OutcomeTruncated:
		return "truncated"
	case OutcomeErrorMode:
		return "error-mode"
	case OutcomeHang:
		return "hang"
	}
	return "outcome?"
}

// IsFailure reports whether the outcome counts as a propagated failure.
func (o Outcome) IsFailure() bool { return o != OutcomeNoEffect }

// NodeInfo is an injectable node annotated with its functional unit.
type NodeInfo struct {
	Node rtl.Node
	Unit sparc.Unit
	// facts and net are what the design table says of Node (nodeFacts) and
	// the id of its net, filled in at enumeration and packed into the padding
	// after Unit; zero in a hand-built value, which the plan looks up instead
	// (NodeInfo.plan).
	facts nodeFacts
	net   int32
	// name is Node.String(), printed when the population was enumerated;
	// empty in a hand-built value. A copy whose Node is edited keeps the old
	// name, facts and net: derive a node as NodeInfo{Node: ..., Unit: ...}.
	name string
}

// nodeFacts is what the design says of a node: the answers the kernel's
// NodeValid, EdgesWatchable and IsArrayWord give, and whether they are known.
type nodeFacts uint8

const (
	factsSet       nodeFacts = 1 << iota // the facts and the net id are filled in
	nodeValid                            // an injectable bit of the design
	edgesWatchable                       // a bit of a register whose clock edges a witness can watch
	arrayWord                            // a bit of a memory-array word
)

// plan returns n's facts and net id: the enumerated ones, or for a hand-built
// node the design table's answer now.
func (n *NodeInfo) plan() (nodeFacts, int32) {
	if n.facts&factsSet != 0 {
		return n.facts, n.net
	}
	return design().factsOf(n.Node)
}

// String returns the node's name as outcomes carry it, Node.String(): the
// copy printed at enumeration, or printed now for a hand-built value.
func (n NodeInfo) String() string {
	if n.name != "" {
		return n.name
	}
	return n.Node.String()
}

// Result is the outcome of one injection experiment.
type Result struct {
	Fault   rtl.Fault
	Unit    sparc.Unit
	Outcome Outcome
	// Latency is the number of cycles from injection to the first off-core
	// mismatch (propagation latency); -1 when the fault did not manifest
	// as a mismatch while running.
	Latency int64
	// Cycles is the faulted run's length.
	Cycles uint64
	// InjectAt is the cycle at which the fault was applied: the runner's
	// fixed instant for permanent models, the experiment's sampled
	// instant for transient ones.
	InjectAt uint64
}

// Options configures a Runner.
type Options struct {
	// InjectAtCycle is the fixed injection instant (paper: faults "appear
	// at a fixed injection instant"). Zero injects at reset.
	InjectAtCycle uint64
	// InjectAtFraction, when nonzero, positions the injection instant at
	// this fraction of the golden run length (overrides InjectAtCycle).
	// Injecting mid-run matters for the open-line model, whose frozen
	// value is the charge the net carries at that instant.
	InjectAtFraction float64
	// PulseCycles is the width of a SETPulse glitch in cycles: the net is
	// forced to the complement of its present value for this many cycles,
	// then released. Zero selects 1 (a single-cycle glitch); more than
	// MaxPulseCycles is rejected. Permanent models and BitFlip ignore it.
	PulseCycles uint64
	// NoCheckpoint is the one engine selector. False (the default) is the
	// production engine: experiments fork from the frozen golden ladder at
	// their injection instant on pooled cores, ride the golden read log as
	// lanes where the planner can reason about them, and drop back onto
	// the golden trajectory when they heal (checkpoint.go, batch.go). True
	// is the deliberately naive reference every equivalence test and the
	// repository benchmark's output check compare against: a fresh core
	// per experiment, simulated from reset to its verdict, one scalar run
	// each — no ladder, no pool, no batch, no reconvergence drop.
	// Classifications are identical either way.
	NoCheckpoint bool
	// Obs, when non-nil, receives the engine's counters (experiments,
	// batch-lane funnel, golden-pass throughput). Observation only: it
	// never influences planning, ordering or results, it is excluded from
	// the campaign runner-cache identity, and it never reaches content
	// addressing — a runner with a registry is byte-identical to one
	// without.
	Obs *obs.Registry
}

// A faulted run still going after budgetFactor × the golden run's length +
// budgetExtra (cycles on RTL, instructions on the ISS) is a hang (DESIGN.md
// §4). Constants, so a runner's budget is a function of its golden run.
const (
	budgetFactor = 3
	budgetExtra  = 10_000
)

func faultedBudget(golden uint64) uint64 { return golden*budgetFactor + budgetExtra }

// MaxPulseCycles bounds Options.PulseCycles. A pulse of 2^30 cycles already
// outlasts the largest faulted budget (3 × the 200M-cycle golden limit +
// 10,000), so the bound takes no glitch the engine can tell apart from a
// wider one, and it keeps every release instant — injection instant plus
// width, on either engine's timebase — from wrapping.
const MaxPulseCycles = 1 << 32

// normalize applies the documented defaults and rejects a pulse wider than
// MaxPulseCycles and an injection fraction that would place the instant at
// or past the golden run's end.
func (o *Options) normalize() error {
	if o.PulseCycles == 0 {
		o.PulseCycles = 1
	}
	if o.PulseCycles > MaxPulseCycles {
		return fmt.Errorf("fault: PulseCycles %d exceeds the limit %d", o.PulseCycles, uint64(MaxPulseCycles))
	}
	if math.IsNaN(o.InjectAtFraction) || math.IsInf(o.InjectAtFraction, 0) ||
		o.InjectAtFraction < 0 || o.InjectAtFraction >= 1 {
		return fmt.Errorf("fault: InjectAtFraction %v outside [0,1)", o.InjectAtFraction)
	}
	return nil
}

// Runner executes fault-injection experiments for one program.
type Runner struct {
	prog   *asm.Program
	opts   Options
	golden mem.Trace
	// GoldenCycles is the clean run's length in cycles.
	GoldenCycles uint64
	budget       uint64

	// baseImg is the pristine program memory, loaded once per runner;
	// every from-reset run forks it copy-on-write instead of re-writing
	// the image byte stream into a fresh memory.
	baseImg *mem.Image

	// Golden ladder, built lazily on first use and immutable afterwards:
	// every experiment, batch lane and logging walk of every campaign on this
	// runner forks from its rungs (see checkpoint.go).
	ladderOnce sync.Once
	lad        *ladder
	// stride, when nonzero, is the ladder's stride whatever the run length:
	// set by tests alone, before the ladder is first used.
	stride uint64
	// log is what the golden continuation read of the nets campaigns have
	// faulted so far, each walked once (see readlog.go).
	log readLog
	// verdicts is what the permanent forcings campaigns have activated so
	// far came to, each stepped once (see batch.go).
	verdicts verdicts

	// engines keeps reusable RTL cores: each campaign worker restores a
	// kept core in place per experiment instead of rebuilding the whole
	// design graph with leon3.New. memos keeps the campaigns' net plans,
	// each held until its campaign's dispatch ends.
	engines freeList[engine]
	memos   freeList[memo]

	// met holds the engine's metric handles — no-ops unless Options.Obs
	// was set.
	met engineMetrics
}

// freeList keeps up to max idle objects for reuse and drops the overflow to
// the collector. Unlike the standard library's pool it survives
// collections: a runner's objects sit idle through an ISS pass and the
// caller's work between campaigns, and a rebuilt engine is a whole design
// graph.
type freeList[T any] struct {
	mu   sync.Mutex
	max  int
	idle []*T
}

// get takes an idle object, or returns nil when there is none.
func (f *freeList[T]) get() *T {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := len(f.idle)
	if n == 0 {
		return nil
	}
	x := f.idle[n-1]
	f.idle[n-1] = nil
	f.idle = f.idle[:n-1]
	return x
}

func (f *freeList[T]) put(x *T) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.idle) < f.max {
		f.idle = append(f.idle, x)
	}
}

// freshCore builds a clean RTL core over a copy-on-write fork of the
// pristine program image (shared by every from-reset experiment and the
// ladder build, so all of them see identical memory).
func (r *Runner) freshCore() (*leon3.Core, *mem.Bus) {
	bus := mem.NewBus(r.baseImg.Fork())
	return leon3.New(bus, r.prog.Entry), bus
}

// NewRunner builds the golden reference by running the program on a clean
// RTL core.
func NewRunner(p *asm.Program, opts Options) (*Runner, error) {
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	m := mem.NewMemory()
	m.LoadImage(p.Origin, p.Image)
	var rows []uint8 // the reference keeps no verdicts
	if !opts.NoCheckpoint {
		rows = design().bits
	}
	r := &Runner{prog: p, opts: opts, baseImg: m.Snapshot(), met: newEngineMetrics(opts.Obs), verdicts: newVerdicts(opts.Obs, rows)}
	r.log.budget, r.log.nets = logBudget, make([]atomic.Pointer[netLog], len(design().nets))
	// One object of each kind per processor: what a campaign at the default
	// worker count holds at once.
	keep := runtime.GOMAXPROCS(0)
	r.engines.max, r.memos.max = keep, keep
	core, _ := r.freshCore()
	st := core.Run(200_000_000)
	if st != iss.StatusExited {
		return nil, fmt.Errorf("fault: golden run did not exit: %v", st)
	}
	r.golden = core.Bus.Trace
	r.GoldenCycles = core.Cycles()
	if opts.InjectAtFraction > 0 {
		r.opts.InjectAtCycle = uint64(opts.InjectAtFraction * float64(r.GoldenCycles))
	}
	r.budget = faultedBudget(r.GoldenCycles)
	return r, nil
}

// Nodes enumerates the injectable nodes of a target, annotated with their
// functional units. The enumeration is computed once per process (the design
// table) and the same slice is returned to every caller; callers must not
// mutate it.
func Nodes(target Target) []NodeInfo { return design().nodesOf(target) }

// Nodes is the package's Nodes: the design's, not the runner's. Only the
// repository benchmark calls it (see CampaignStopContext).
func (r *Runner) Nodes(target Target) []NodeInfo { return Nodes(target) }

// Experiment is one (node, model) injection.
type Experiment struct {
	Node  NodeInfo
	Model rtl.FaultModel
	// AtCycle is the injection instant of a transient-model experiment
	// (BitFlip, SETPulse); permanent models ignore it and inject at the
	// runner's fixed instant. ScheduleTransients assigns it
	// deterministically; left zero, a transient experiment injects at
	// reset.
	AtCycle uint64
}

// Expand crosses nodes with fault models. The enumeration order —
// models outer, nodes inner — is load-bearing: the shard layer's
// experiment-index currency and the job service's content addressing
// both assume every expansion of the same (nodes, models) pair yields
// the identical sequence.
func Expand(nodes []NodeInfo, models ...rtl.FaultModel) []Experiment {
	return ExpandInto(nil, nodes, models...)
}

// ExpandInto is Expand into dst's storage, which it overwrites: reused when
// it holds the whole expansion, replaced by one of exactly its size when not.
func ExpandInto(dst []Experiment, nodes []NodeInfo, models ...rtl.FaultModel) []Experiment {
	out := slices.Grow(dst[:0], len(nodes)*len(models))[:len(nodes)*len(models)]
	k := 0
	for _, m := range models {
		for i := range nodes {
			// Field by field: appending a composite literal builds it and then
			// copies it, several times slower.
			e := &out[k]
			e.Node, e.Model, e.AtCycle = nodes[i], m, 0
			k++
		}
	}
	return out
}

// splitmix64 is the SplitMix64 output scrambler: a fixed, dependency-free
// bijection used to derive per-experiment injection cycles. It must never
// change — sharded campaigns rely on every process sampling the same
// instants.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// transientCycle samples the injection instant of the transient
// experiment at absolute index i: uniform over [lo, hi) keyed by (seed,
// i) alone.
func transientCycle(seed int64, i int, lo, hi uint64) uint64 {
	if hi <= lo {
		return lo
	}
	return lo + splitmix64(splitmix64(uint64(seed))+uint64(i))%(hi-lo)
}

// ScheduleTransients assigns every transient-model experiment its
// injection instant: a deterministic uniform sample over [the runner's
// fixed injection instant, the golden run length), keyed by the seed and
// the experiment's absolute index in exps. Keying by absolute index —
// never by worker-local completion or dispatch order — is the
// determinism rule that keeps sharded campaigns byte-identical to
// unsharded ones: any contiguous slice of a scheduled list carries the
// same instants no matter which worker executes it. The window starts at
// the runner's fixed instant so every sampled cycle lies on the golden
// ladder and the experiment can fork from a rung.
func (r *Runner) ScheduleTransients(exps []Experiment, seed int64) {
	scheduleTransients(exps, seed, r.opts.InjectAtCycle, r.GoldenCycles)
}

func scheduleTransients(exps []Experiment, seed int64, lo, hi uint64) {
	for i := range exps {
		if exps[i].Model.Transient() {
			exps[i].AtCycle = transientCycle(seed, i, lo, hi)
		}
	}
}

// comparator is the early-exit golden-trace comparator state of one
// faulted run: the index of the next expected golden write and the cycle
// of the first off-core mismatch (-1 while none).
type comparator struct {
	mismatchAt int64
	idx        int
}

// live reports whether a faulted run can still change its verdict: the
// core is running, inside the cycle budget and has not yet mismatched at
// the off-core boundary.
func (r *Runner) live(core *leon3.Core, c *comparator) bool {
	return core.Status() == iss.StatusRunning && core.Cycles() < r.budget && c.mismatchAt < 0
}

// classify maps a finished faulted run onto its outcome and latency.
// injectAt is the instant the fault was armed (latencies are relative to
// it).
func (r *Runner) classify(res *Result, core *leon3.Core, bus *mem.Bus, c *comparator, injectAt uint64) {
	classifyRun(res, &r.golden, core.Status(), core.Cycles(), bus, c, injectAt)
}

// engine is a kept per-worker execution context: one reusable RTL core
// whose kernel state is restored in place per experiment, so the design
// graph is built once per worker instead of once per experiment; the
// golden comparator hooked onto the core's bus, which with its memory is
// re-pointed at a rung per fork (ladder.fork) instead of rebuilt; and the
// one state buffer resolve's recurrence search saves into.
type engine struct {
	core *leon3.Core
	cmp  comparator
	seen rtl.Snapshot
	diff [diffMax]rtl.WordDiff // the words a universe differs from a rung in (Runner.park)
}

// diffMax is how many state words a universe may differ from a golden rung
// in and still be parked on their read logs: the stretches a corrupted
// value sits unread in a few words of the register file. A constant, not an
// option.
const diffMax = 4

// getEngine takes a kept engine, building one when none is idle. The
// NoCheckpoint reference keeps none: it builds a fresh core every time.
func (r *Runner) getEngine() *engine {
	if !r.opts.NoCheckpoint {
		if e := r.engines.get(); e != nil {
			return e
		}
	}
	core, bus := r.freshCore()
	e := &engine{core: core}
	e.cmp.watch(&r.golden, bus, core.Cycles)
	return e
}

// putEngine returns an engine to the runner.
func (r *Runner) putEngine(e *engine) {
	if !r.opts.NoCheckpoint {
		r.engines.put(e)
	}
}

// wedgeEvery is the cadence, in cycles, at which resolve asks the core for
// the wedged proof: a dozen signal reads, against up to 3×golden+10,000
// cycles not stepped. A constant, not an option.
const wedgeEvery = 8

// armAt returns the cycle at which the experiment's fault is applied:
// the sampled per-experiment instant for transient models, the runner's
// fixed injection instant otherwise.
func (r *Runner) armAt(e *Experiment) uint64 {
	if e.Model.Transient() {
		return e.AtCycle
	}
	return r.opts.InjectAtCycle
}

// resolve runs lane l's fault universe to its verdict, written to res, on
// eng's core — the one run loop of the engine, shared by scalar experiments
// and activated batch lanes. The universe forks from the golden trajectory at the
// lane's activation cycle (lad nil: from reset), the fault is armed, and
// the core steps until exit, error mode, the cycle budget or the first
// off-core mismatch. Permanent models stay forced to the end of the run; a
// BitFlip mutates state once and the design runs free; a SETPulse is
// released when its window closes.
//
// On a ladder four kinds of verdict are proven instead of stepped to
// (DESIGN.md §10 has the arguments); the from-reset reference proves
// nothing and steps to every one.
//
// Healed: committed state equal to a golden rung's with the off-core write
// position at the rung's, which together imply identical memory, since
// every write so far flowed through the matching comparator. An unarmed
// transient universe (a flip from the start, a pulse once released) is
// compared every cycle with the rung at or below it: the cycle counter
// feeds nothing, so shift cycles past the rung it replays the golden
// continuation shift cycles late. A batch lane with its forcing armed is
// compared on the rung's own cycle only, where its net's read log says
// when the forcing is next read divergently: never, and it is no-effect;
// far away, and it is re-forked there; soon, and it runs on. A scalar
// permanent fault has no log and is never compared.
//
// Parked: an unarmed universe equal to the rung but for at most diffMax
// state words (rtl.Kernel.Diff), on the rung's own cycle — the logs are
// indexed by golden cycle — and at the rung's write position. Each word is
// an upset on its net's read log, where the runner has published one, and
// the universe stays golden but for them until one is read (Runner.park):
// never, and it is no-effect; more than two strides away, and it is re-forked
// there with the words still differing XORed back in; nearer, and it runs
// on. An upset lane whose flip has drained is the lane it was at its
// instant; a universe healed altogether asks nothing.
//
// Recurrent: past the last rung, with nothing left to release, the future
// is a function of kernel slabs, memory and comparator. Brent's cycle
// search — eng.seen is the state since cycles back, re-saved at doubling
// periods and after every off-core write, which alone moves memory and
// comparator — finds a state recurring with no write in between: the
// universe is finalized at the budget, the hang it would be stepped to.
//
// Wedged: with nothing left to release and no mismatch recorded, a core
// whose back end is drained and whose EX gate provably stays shut to the
// budget (leon3.Core.Wedged, asked every wedgeEvery cycles) commits nothing
// on the way there, however far the fetch free-runs: the same hang.
func (r *Runner) resolve(eng *engine, lad *ladder, l *lane, res *Result) {
	core, bus, c := eng.core, eng.core.Bus, &eng.cmp
	l.result(res)
	stepped := r.materialize(eng, lad, l.activateAt)
	healed := false
	defer func() { r.met.cycles(stepped, res.Outcome, healed) }()
	if err := l.arm(core); err != nil {
		// An invalid node: nothing was injected.
		return
	}
	release := l.pulseEnd // 0: nothing to release
	period, since, writes := uint64(1), uint64(0), -1
	// hangs finalizes the universe where it would be stepped to: still
	// running at the budget.
	hangs := func(proof int) {
		r.met.proven[proof].Inc()
		classifyRun(res, &r.golden, iss.StatusRunning, r.budget, bus, c, l.injectAt)
	}
	for r.live(core, c) {
		if release != 0 && core.Cycles() >= release {
			core.K.ClearFaults()
			release = 0
		}
		core.StepCycle()
		stepped++
		if lad == nil {
			continue
		}
		t := core.Cycles()
		if t%wedgeEvery == 0 && release == 0 && c.mismatchAt < 0 && core.Wedged(r.budget-t) {
			hangs(provenWedged)
			return
		}
		i := lad.below(t)
		g := &lad.rungs[i]
		shift := t - g.core.Cycle()
		if shift > 0 && i == len(lad.rungs)-1 && release == 0 {
			w := len(bus.Trace.Writes)
			if w == writes && core.K.Recurs(&eng.seen) {
				hangs(provenRecurrent)
				return
			}
			if since++; w != writes || since == period {
				if w == writes {
					period *= 2
				}
				core.K.SnapshotInto(&eng.seen)
				writes, since = w, 0
			}
		}
		// Comparable: an unarmed universe on any cycle, an armed batch lane
		// on the rung's own.
		unarmed := l.f.Model.Transient() && t >= l.pulseEnd
		if c.mismatchAt >= 0 || c.idx != g.writes || !unarmed && (l.log == nil || shift > 0) ||
			r.GoldenCycles+shift > r.budget {
			continue
		}
		next, kept, parked := int64(-1), 0, false
		switch {
		case unarmed && shift == 0:
			// Healed when no word differs; parked, golden but for a few words
			// whose logs say when one is next read, a lane again from here.
			n, ok := core.Diff(g.core, eng.diff[:])
			if ok && n > 0 {
				next, kept, ok = r.park(eng, n, t)
				parked = true
			}
			if !ok {
				continue
			}
		case !core.StateEquals(g.core):
			continue
		case !unarmed:
			// Healed with its forcing armed: a lane again from here.
			next = l.nextActivation(t)
		}
		if next >= 0 && uint64(next)-t <= 2*lad.stride {
			continue
		}
		r.met.reconverged.Inc()
		if next < 0 {
			if shift > 0 {
				r.met.proven[provenShifted].Inc()
			}
			if parked {
				r.met.proven[provenParked].Inc()
			}
			healed = true
			res.Cycles = r.GoldenCycles + shift
			return
		}
		// Teleport across the quiet stretch instead of simulating it.
		stepped += r.materialize(eng, lad, uint64(next))
		if parked {
			for _, w := range eng.diff[:kept] {
				core.K.XorWord(w.Index, w.Mask)
			}
		} else {
			_ = l.arm(core) // the same arming succeeded above
		}
	}
	r.classify(res, core, bus, c, l.injectAt)
}

// park asks the read logs of the n state words in eng.diff, in which an
// unarmed universe on rung cycle t differs from the rung, when the universe
// is next read: each word is an upset on its net's log (netLog.upset), and
// the universe stays golden but for the words still differing up to the
// first cycle one of them is read (next; -1 if none ever is). A word replaced
// unread before then is golden from there on and drops out; the rest, in
// eng.diff[:kept], are what a teleport to next XORs back in. ok is false —
// step on — when a word's log is not published, or a register's lacks its
// clock edges, without which an unread replacement looks like a carry.
func (r *Runner) park(eng *engine, n int, t uint64) (next int64, kept int, ok bool) {
	d := design()
	var dead [diffMax]int64
	next = -1
	for i, w := range eng.diff[:n] {
		lg := r.log.nets[d.state[w.Index]].Load()
		if lg == nil || w.Index < d.regs && lg.has&logEdges == 0 {
			return 0, 0, false
		}
		at, read := lg.upset(t)
		dead[i] = -1
		switch {
		case read && (next < 0 || at < next):
			next = at
		case !read:
			dead[i] = at
		}
	}
	for i, w := range eng.diff[:n] {
		if dead[i] < 0 || dead[i] >= next {
			eng.diff[kept] = w
			kept++
		}
	}
	return next, kept, true
}

// RunOne executes a single injection experiment as a scalar simulation.
// On the production engine — at any fixed instant, reset included — the
// universe forks from the golden rung at or below the experiment's own
// injection instant (the runner's fixed instant for permanent models,
// the sampled instant for transient ones) on a pooled core, and a
// transient universe is finalized the moment it heals (see resolve);
// under NoCheckpoint, and for a hand-built transient placed before the
// ladder's first rung, it simulates from reset so the injection is never
// skipped. Both engines produce identical results. Only the repository
// benchmark calls it (see CampaignStopContext).
func (r *Runner) RunOne(e Experiment) Result {
	var res Result
	r.runLane(&e, nil, 0, &res, nil)
	return res
}

// CampaignStopContext runs the experiments across workers under ctx, with
// per-completion taps and sequential early stopping, and returns results in
// input order with a bitmap of the experiments that ran; experiments a
// cancellation or the stop rule kept from running are left zero-valued, and
// a cancelled campaign's partial results come back with ctx.Err(). It is
// CampaignSink with a sink that fills the array (collect).
//
// Every campaign of the module runs through CampaignSink. This, the
// ISSRunner's, collect, Runner.Nodes, Runner.RunOne and
// ISSRunner.PrepareCheckpoint are kept for one caller alone, the repository
// benchmark's engine layer (bench/layers.go), which calls them on the
// concrete runners; they go together with that caller's edit.
func (r *Runner) CampaignStopContext(ctx context.Context, exps []Experiment, workers int, tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error) {
	return collect(ctx, r, exps, workers, tap, stop)
}

// CampaignSink runs the experiments across workers under ctx and hands each
// finished one to sink (see dispatch for the sink/stop/cancel contract).
// Permanent forcings resolve through the runner's verdict table, so a
// caller that cuts one campaign into several calls on this runner — shards,
// an audit and its escalations — or submits an overlapping one later steps
// each forcing once (see verdicts).
//
// The dispatch granule is one experiment (runLane), a lane or scalar alike:
// a stop or cancellation overshoots by at most one experiment per worker.
func (r *Runner) CampaignSink(ctx context.Context, exps []Experiment, workers int, sink func(i int, res *Result), stop func(done, failures int) bool) error {
	m := r.planBatches(exps)
	if m != nil {
		// dispatch returns with every worker gone: no lane still reads the memo.
		defer r.putMemo(m)
	}
	return dispatch(ctx, len(exps), workers, stop, func(i int, res *Result, c *crew) { r.runLane(&exps[i], m, i, res, c) }, sink)
}

// putMemo returns a call's memo to the runner.
func (r *Runner) putMemo(m *memo) {
	clear(m.logs) // a log over budget is the campaign's alone: dropped here
	r.memos.put(m)
}

// collect is CampaignStopContext over an engine's CampaignSink: its sink
// copies each result into its slot of an input-ordered array, marks it ran
// and taps it.
func collect(ctx context.Context, e CampaignEngine, exps []Experiment, workers int, tap func(i int, res Result), stop func(done, failures int) bool) ([]Result, []bool, error) {
	results, ran := make([]Result, len(exps)), make([]bool, len(exps))
	err := e.CampaignSink(ctx, exps, workers, func(i int, res *Result) {
		results[i], ran[i] = *res, true
		if tap != nil {
			tap(i, *res)
		}
	}, stop)
	return results, ran, err
}

// dispatch is the one campaign loop of the package, shared by the RTL and
// ISS engines, and its granule is one experiment: workers (0 = GOMAXPROCS;
// never more than there are experiments) draw the indices 0..n-1, in order,
// from one counter, run(i, res, c) executes experiment i into the worker's
// result, zeroed before each run, and sink(i, res) takes it from there —
// the pointer is the worker's, valid until sink returns.
//
// The caller is the first worker, and at first the only one: it draws
// alone, in index order, until an experiment is about to take an engine —
// the engine says so by calling c.wake() (the RTL engine's step, the ISS
// engine's stepFrom and its log-less run) — and only then starts the other
// workers. A campaign whose every experiment is a table read — a known
// verdict, a free lane — is over before a goroutine could have started,
// so it starts none; nor does a one-worker campaign — a shard.
//
// sink is called concurrently from the workers, once per experiment that
// ran, in no fixed order; a sink that writes only experiment i's own slot
// needs no lock. After every completed experiment the stop rule — when
// non-nil — is consulted with the running completion and failure counts;
// once it returns true the campaign halts within one experiment per worker,
// exactly like a context cancellation, but with a nil error: stopping
// adaptively is a successful outcome, not an abort. Every finished
// experiment is sunk and counted, so the stop rule's decisions remain a
// function of completed experiment counts only. Only a stop rule reads the
// counts, so without one the workers share nothing but the counter.
//
// On ctx cancellation each worker finishes the experiment it is on and
// draws no other, and dispatch returns ctx.Err(), the experiments that ran
// having been sunk.
func dispatch(ctx context.Context, n, workers int, stop func(done, failures int) bool,
	run func(i int, res *Result, c *crew), sink func(i int, res *Result)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// What the workers share, made once — the loop, its counter and the wake
	// included, so that waking allocates nothing but the goroutines.
	c := &crew{n: n, run: run, sink: sink, stop: stop, slots: make([]workerResult, max(min(workers, n), 1))}
	cctx := ctx
	if stop != nil {
		cctx, c.cancel = context.WithCancel(ctx)
		defer c.cancel()
	}
	c.halted = cctx.Done()
	c.work(0)
	c.wg.Wait()
	// A halt that came from the stop rule, not the caller, is a success.
	return ctx.Err()
}

// crew is one dispatch call's workers and what they share: the draw
// counter, the counts a stop rule reads, each worker's result, and whether
// the caller has started the others yet.
type crew struct {
	n      int
	run    func(i int, res *Result, c *crew)
	sink   func(i int, res *Result)
	stop   func(done, failures int) bool
	cancel context.CancelFunc
	halted <-chan struct{}
	next   atomic.Int64 // the next experiment nobody has drawn
	tally  struct {
		sync.Mutex
		done, failures int
	}
	// woken is written once, by the caller, before it starts the other
	// workers, which read it only after they start: no atomic needed.
	woken bool
	wg    sync.WaitGroup
	slots []workerResult // one per worker; the caller's is slots[0]
}

// wake starts the workers beside the caller, once per campaign and no more
// of them than there are experiments left to draw; an engine calls it as an
// experiment is about to take one. A nil crew — an experiment run outside a
// campaign (RunOne) — has nobody to wake.
func (c *crew) wake() {
	if c == nil || c.woken {
		return
	}
	c.woken = true
	helpers := min(len(c.slots)-1, c.n-int(c.next.Load()))
	for w := 1; w <= helpers; w++ {
		c.wg.Add(1)
		go c.help(w)
	}
}

// help is worker w's goroutine.
func (c *crew) help(w int) {
	defer c.wg.Done()
	c.work(w)
}

// work is worker w's loop: draw, run, sink, and count for a stop rule.
func (c *crew) work(w int) {
	res := &c.slots[w].res
	for {
		i := int(c.next.Add(1)) - 1
		if i >= c.n {
			return
		}
		select {
		case <-c.halted:
			return
		default:
		}
		*res = Result{}
		c.run(i, res, c)
		c.sink(i, res)
		if c.stop == nil {
			continue
		}
		t := &c.tally
		t.Lock()
		t.done++
		if res.Outcome.IsFailure() {
			t.failures++
		}
		d, f := t.done, t.failures
		t.Unlock()
		if c.stop(d, f) {
			c.cancel()
		}
	}
}

// workerResult is a dispatch worker's result, padded so that the next
// worker's starts a cache line clear of it: each is written every
// experiment.
type workerResult struct {
	res Result
	_   [64]byte
}
