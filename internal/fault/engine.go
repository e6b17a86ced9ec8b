package fault

import (
	"context"
	"strings"
	"sync"

	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// CampaignEngine is the execution contract every campaign-capable
// simulation backend satisfies, and exactly what the jobs layer calls:
// golden-run construction happens in the backend's constructor, and the
// interface exposes what a campaign needs afterwards — deterministic
// transient scheduling, the golden run's length in the backend's own
// timebase, whether experiments fork from a snapshot, and the parallel
// campaign loop with sink/stop hooks. Node identity is the design's, not an
// engine's: both engines inject into the one list Nodes enumerates.
//
// Timebase: every tick-valued quantity (GoldenTicks, Result.Cycles,
// Result.InjectAt, Result.Latency, Experiment.AtCycle) is in the
// engine's native unit — clock cycles for the RTL slab kernel,
// executed instructions for the ISS. The hybrid router pins both
// engines to the RTL cycle timebase (see NewISSRunner's cycleRef) so a
// single experiment list with RTL-cycle instants drives either side.
type CampaignEngine interface {
	// ScheduleTransients assigns every transient-model experiment its
	// injection instant, keyed by (seed, absolute index) alone — the
	// determinism rule of sharded campaigns.
	ScheduleTransients(exps []Experiment, seed int64)
	// GoldenTicks is the clean run's length in the engine's timebase.
	GoldenTicks() uint64
	// Checkpointed reports whether forking skipped a warm-up prefix (the
	// engine forks and the fixed injection instant lies past reset). It
	// is the value of the outcome's frozen `checkpointed` field, not a
	// statement about which engine ran.
	Checkpointed() bool
	// CampaignSink runs the experiments across workers and hands each
	// finished one to sink, under an optional sequential stop rule; see
	// dispatch for the full contract. It is the engine's one campaign loop.
	CampaignSink(ctx context.Context, exps []Experiment, workers int,
		sink func(i int, res *Result), stop func(done, failures int) bool) error
}

// Both campaign backends satisfy the engine contract.
var (
	_ CampaignEngine = (*Runner)(nil)
	_ CampaignEngine = (*ISSRunner)(nil)
)

// GoldenTicks returns the golden run length in the RTL engine's
// timebase (clock cycles).
func (r *Runner) GoldenTicks() uint64 { return r.GoldenCycles }

// InjectCycle returns the resolved fixed injection instant in cycles
// (InjectAtFraction already applied). The hybrid router reads it to pin
// the ISS engine to the same instant on the RTL cycle timebase.
func (r *Runner) InjectCycle() uint64 { return r.opts.InjectAtCycle }

// designTable is what campaigns read of the RTL design, built once per
// process from a throwaway core: the design does not depend on the program,
// so every runner of both engines shares it. Each net (Name, Word) — a
// signal, or one word of a memory array — has a dense id, one space for both
// targets, and what the plan asks of a node is asked of the kernel here, at
// enumeration, instead of by the node's name per experiment.
type designTable struct {
	k    *rtl.Kernel      // the throwaway core's
	nets []rtl.WitnessNet // by net id
	bits []uint8          // by net id, the net's width
	// victims is, by net id, the ISS register the net's bits are injected
	// into (victimReg), filled here so that an ISS experiment reads it
	// through its node's net id instead of hashing the name.
	victims []uint8
	// state is, by the index rtl.Kernel.Diff gives a state word — the
	// registers, then the array words — the word's net id; regs is how many
	// of the indices are registers.
	state []int32
	regs  int32
	ids   map[rtl.WitnessNet]int32 // by net
	once  [2]sync.Once
	nodes [2][]NodeInfo // each target's annotated node list, IU then CMEM, enumerated on first use
}

var (
	designOnce sync.Once
	theDesign  *designTable
)

// design returns the process's design table, numbering the nets on first
// use.
func design() *designTable {
	designOnce.Do(func() {
		k := leon3.New(mem.NewBus(mem.NewMemory()), 0).K
		d := &designTable{k: k, ids: map[rtl.WitnessNet]int32{}}
		add := func(wn rtl.WitnessNet, width int, name uint64) {
			d.ids[wn] = int32(len(d.nets))
			d.nets, d.bits = append(d.nets, wn), append(d.bits, uint8(width))
			d.victims = append(d.victims, victimReg(name, wn.Word))
		}
		for _, s := range k.Signals() {
			if s.IsReg() {
				d.state = append(d.state, int32(len(d.nets)))
			}
			add(rtl.WitnessNet{Name: s.Name()}, s.Width(), strHash(s.Name()))
		}
		d.regs = int32(len(d.state))
		for _, a := range k.Arrays() {
			h := strHash(a.Name())
			for w := range a.Len() {
				d.state = append(d.state, int32(len(d.nets)))
				add(rtl.WitnessNet{Name: a.Name(), Word: w}, a.Width(), h)
			}
		}
		theDesign = d
	})
	return theDesign
}

// nodesOf returns target's node list, enumerating it on first use; any
// target but CMEM is the IU, as in Target.Prefix.
func (d *designTable) nodesOf(target Target) []NodeInfo {
	i := 0
	if target == TargetCMEM {
		i = 1
	}
	d.once[i].Do(func() { d.nodes[i] = d.enumerate(target) })
	return d.nodes[i]
}

// enumerate builds target's annotated node list. Both engines enumerate
// through the one kernel, so the ISS engine yields the byte-identical list
// the RTL engine does. Every node's name is printed here, once per process
// and into one string, for the outcomes of every campaign to share
// (NodeInfo.String), and its facts and net id are filled in.
func (d *designTable) enumerate(target Target) []NodeInfo {
	nodes := d.k.Nodes(target.Prefix())
	// A string from the builder never changes, so each name is a slice of
	// what it has built so far.
	var names strings.Builder
	names.Grow(24 * len(nodes)) // a name is some 20 bytes
	out := make([]NodeInfo, len(nodes))
	for j, n := range nodes {
		start := names.Len()
		names.WriteString(n.String())
		if j > 0 && n.Name == nodes[j-1].Name && n.Word == nodes[j-1].Word {
			// A net's bits are enumerated together and share its unit, facts
			// and id: each is valid.
			out[j] = out[j-1]
		} else {
			out[j].Unit = sparc.Unit(d.k.UnitOf(n.Name))
			out[j].facts, out[j].net = d.factsOf(n)
		}
		out[j].Node, out[j].name = n, names.String()[start:]
	}
	return out
}

// factsOf returns what the design's kernel says of n — NodeValid,
// EdgesWatchable and IsArrayWord, with factsSet — and n's net id: -1 for a
// node on no net of the design, which is invalid.
func (d *designTable) factsOf(n rtl.Node) (nodeFacts, int32) {
	f := factsSet
	if d.k.NodeValid(n) {
		f |= nodeValid
	}
	if d.k.EdgesWatchable(n) {
		f |= edgesWatchable
	}
	if d.k.IsArrayWord(n) {
		f |= arrayWord
	}
	id, ok := d.ids[rtl.WitnessNet{Name: n.Name, Word: n.Word}]
	if !ok {
		id = -1
	}
	return f, id
}

// watch makes c the bus's write observer for as long as the bus lives; the
// owner re-arms it by assigning c a fresh value. tick reports the engine's
// current time (cycles for RTL, instructions for the ISS) and timestamps
// the first mismatch.
func (c *comparator) watch(golden *mem.Trace, bus *mem.Bus, tick func() uint64) {
	bus.OnWrite = func(a mem.Access) {
		if c.mismatchAt >= 0 {
			return
		}
		g := golden.Writes
		if c.idx >= len(g) || a.Write != g[c.idx].Write || a.Addr != g[c.idx].Addr ||
			a.Size != g[c.idx].Size || a.Data != g[c.idx].Data {
			c.mismatchAt = int64(tick())
		}
		c.idx++
	}
}

// classifyRun maps a finished faulted run onto outcome and latency —
// the classification rules both engines share. status and ticks are the
// run's terminal status and length in the engine's timebase; injectAt
// is the instant the fault was armed, in the same timebase (latencies
// are relative to it).
func classifyRun(res *Result, golden *mem.Trace, status iss.Status, ticks uint64,
	bus *mem.Bus, c *comparator, injectAt uint64) {
	res.Cycles = ticks
	switch {
	case c.mismatchAt >= 0:
		res.Outcome = OutcomeMismatch
		res.Latency = c.mismatchAt - int64(injectAt)
	case status == iss.StatusErrorMode:
		// Detected when off-core activity ceases: at the halt point.
		res.Outcome = OutcomeErrorMode
		res.Latency = int64(ticks) - int64(injectAt)
	case status == iss.StatusRunning || status == iss.StatusBudget:
		res.Outcome = OutcomeHang
	case c.idx != len(golden.Writes) || bus.ExitCode() != golden.ExitCode:
		// Detected at program end, when the write count disagrees.
		res.Outcome = OutcomeTruncated
		res.Latency = int64(ticks) - int64(injectAt)
	default:
		res.Outcome = OutcomeNoEffect
	}
}

// auditSalt keys the RTL-audit Bernoulli draw apart from the transient
// instant sampler that shares splitmix64. Like the scrambler itself it
// must never change: sharded hybrid campaigns rely on every process
// selecting the identical audit set.
const auditSalt = 0xa5d17bd790c43f21

// AuditSample reports whether experiment i belongs to a hybrid
// campaign's deterministic RTL-audit sample: a Bernoulli(fraction) draw
// keyed by (seed, absolute index) alone, so any contiguous shard of the
// experiment list audits exactly the experiments the unsharded campaign
// would. fraction >= 1 audits everything; <= 0 audits nothing.
func AuditSample(seed int64, i int, fraction float64) bool {
	if fraction >= 1 {
		return true
	}
	if fraction <= 0 {
		return false
	}
	h := splitmix64(splitmix64(uint64(seed)^auditSalt) + uint64(i))
	// 53 uniform bits → [0,1) with full float64 precision.
	return float64(h>>11)/(1<<53) < fraction
}
