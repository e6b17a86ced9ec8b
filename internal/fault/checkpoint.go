package fault

import (
	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/mem"
)

// This file implements the golden ladder, the runner's one source of
// golden state. The paper's cost argument (§4.2) is that RTL fault
// injection is orders of magnitude more expensive than ISS simulation;
// most of that cost is redundancy, because a faulted run spends nearly
// all of its cycles bit-identical to the fault-free one — before its
// fault arrives, and again after an upset has been overwritten. The
// fault-free run is therefore simulated exactly once more after the
// golden run: from reset to the fixed injection instant, and on to
// program exit, freezing a rung — every RTL signal and memory array, the
// architectural counters, a copy-on-write memory image and the off-core
// trace position — at the injection instant and at a fixed spacing from
// there, and a fork point, what differs from the rung below, at a quarter
// of that spacing between. Every experiment of every campaign on the
// runner forks from the golden state at or below the cycle where its
// universe first differs from the golden one (materialize), and a
// universe that provably re-equals a
// rung is dropped back onto the golden trajectory instead of being
// simulated to program exit (Runner.resolve). Rungs are immutable and
// their memory pages are shared copy-on-write, so any number of
// concurrent workers fork from one ladder.

// rungSpacing is the base distance between ladder rungs in cycles. It
// sets the granularity of the reconvergence check: a register file word
// stuck at a value its readers mask is read now and then and healed a
// cycle later, and is let go at the next rung.
const rungSpacing = 16

// forkParts is how many parts fork points cut a rung interval into: a
// fork point every stride/forkParts cycles between rungs, so that
// materialization replays fewer than stride/forkParts clean cycles. No
// check runs at a fork point; it is a place to fork from, not a rung.
const forkParts = 4

// maxRungs caps a ladder's length: each rung holds a copy of the kernel's
// committed state (~8 KB: one window of the ladder's single slab) and a
// cached runner pins its ladder, so a golden run past 8,192 cycles widens
// the spacing (in multiples of rungSpacing) instead of adding rungs.
const maxRungs = 512

// forkPoint is the golden-run state at a cycle between two rungs, kept as
// what differs from the rung below it: the core's (leon3.Core.AppendDelta,
// a window of the ladder's one slab) and the golden write index. Its
// memory is the rung's image plus the golden writes between the two.
type forkPoint struct {
	delta  []uint64
	writes int
}

// rung is the forkable golden-run state at one cycle.
type rung struct {
	core *leon3.Snapshot
	// img is shared with the rung before when the golden run wrote nothing
	// off-core in between: memory changes through bus writes alone.
	img *mem.Image
	// writes is the absolute index of the next golden off-core write: a
	// forked universe's comparator starts there, and a healed universe
	// must sit there again.
	writes int
}

// ladder is the frozen golden trajectory from the fixed injection
// instant to program exit. Rung i sits at cycle start + i*stride.
type ladder struct {
	// start is rung 0's cycle: the fixed injection instant (0: the reset
	// state), or the golden run's end when the instant lies beyond it.
	start  uint64
	stride uint64
	rungs  []rung
	// step is the fork points' spacing, stride/forkParts (0: none); rung
	// i's point k (1 <= k < forkParts), at cycle k*step past it, is
	// points[i*(forkParts-1)+k-1], zero when the run ended before it.
	step   uint64
	points []forkPoint
	// written is one bitmap per rung interval, of words bitmap words each:
	// the array words the golden run wrote from rung i on to rung i+1 (to
	// its end, after the last rung) — not the words that differ between
	// the two, since a word written and written back differs at the fork
	// points between them.
	written []uint64
	words   int
	// golden is the golden run's off-core writes, which fork points replay
	// into a forked memory.
	golden []mem.Access
	// Exit-device state at rung 0, restored onto every forked bus so
	// end-of-run classification sees the full run. It is only ever set
	// when rung 0 was taken past program exit, and then rung 0 is the
	// only rung: later rungs are frozen while the core is still running.
	exited   bool
	exitCode uint32
}

// Checkpointed reports whether forking skipped a warm-up prefix: the
// ladder is on and the fixed injection instant lies past reset. It is a
// wire field (Outcome.Checkpointed, ShardOutput.Checkpointed), frozen
// with the outcome encoding, and not the engine switch: the ladder, the
// batch planner and reconvergence depend on NoCheckpoint alone, and at
// instant 0 rung 0 is simply the reset state.
func (r *Runner) Checkpointed() bool {
	return !r.opts.NoCheckpoint && r.opts.InjectAtCycle != 0
}

// PrepareCheckpoint builds the golden ladder eagerly (a no-op when the
// engine is off or the ladder already exists). Benchmarks call it to keep
// the one-time clean simulation out of timed regions.
func (r *Runner) PrepareCheckpoint() { r.ladder() }

// ladder returns the lazily built golden ladder, or nil when the engine
// is disabled.
func (r *Runner) ladder() *ladder {
	if r.opts.NoCheckpoint {
		return nil
	}
	r.ladderOnce.Do(func() { r.lad = r.buildLadder() })
	return r.lad
}

// buildLadder re-runs the clean core once, from the golden run's latest mark
// at or below the injection instant (from reset when there is none) through
// the instant to program exit, freezing a rung every stride cycles from the
// injection instant on. This is the only time the rest of the warm-up prefix
// and the clean continuation are simulated for their state, no matter how
// many experiments and campaigns the runner serves.
func (r *Runner) buildLadder() *ladder {
	core, bus := r.freshCore()
	if m := r.mark; m != nil {
		m.img.ForkInto(bus.Mem)
		if err := core.Restore(m.core); err != nil {
			panic("fault: the golden run's mark does not fit a fresh core: " + err.Error())
		}
		bus.Trace.Writes = append(bus.Trace.Writes, r.golden.Writes[:m.writes]...)
		r.mark = nil
	}
	for core.Cycles() < r.opts.InjectAtCycle && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	lad := &ladder{start: core.Cycles(), stride: r.stride, golden: r.golden.Writes,
		exited: bus.Trace.Exited, exitCode: bus.Trace.ExitCode}
	span := r.GoldenCycles - lad.start
	if lad.stride == 0 {
		lad.stride = rungSpacing * max(1, (span+rungSpacing*maxRungs-1)/(rungSpacing*maxRungs))
	}
	lad.step = lad.stride / forkParts
	// One rung per stride while the core runs, the first even if it does not.
	snaps := core.Snapshots(int(max(1, (span+lad.stride-1)/lad.stride)))
	lad.rungs = make([]rung, 0, len(snaps))
	lad.points = make([]forkPoint, len(snaps)*(forkParts-1))
	// The points' deltas, 40 to 70 words each on the workloads, are
	// appended to one slab, sized for 48 a point.
	slab := make([]uint64, 0, 48*len(lad.points))
	ends := make([]int, len(lad.points)) // each point's delta ends there in slab
	for {
		off := core.Cycles() - lad.start
		k := off % lad.stride
		switch {
		case k == 0:
			if len(lad.rungs) > 0 {
				lad.written = append(lad.written, core.K.Touched()...)
			}
			g := rung{core: &snaps[len(lad.rungs)], writes: len(bus.Trace.Writes)}
			core.SnapshotInto(g.core)
			if n := len(lad.rungs); n > 0 && lad.rungs[n-1].writes == g.writes {
				g.img = lad.rungs[n-1].img
			} else {
				g.img = bus.Mem.Snapshot()
			}
			lad.rungs = append(lad.rungs, g)
			// Restored onto itself, the core counts the words it writes
			// from here to the next rung.
			if err := core.Restore(g.core); err != nil {
				panic("fault: a core does not fit its own snapshot: " + err.Error())
			}
		case lad.step > 0 && k%lad.step == 0 && k/lad.step < forkParts:
			i := len(lad.rungs) - 1
			p := i*(forkParts-1) + int(k/lad.step) - 1
			slab = core.AppendDelta(slab, lad.rungs[i].core)
			lad.points[p].writes, ends[p] = len(bus.Trace.Writes), len(slab)
		}
		if core.StepCycle() != iss.StatusRunning {
			break
		}
	}
	lad.written = append(lad.written, core.K.Touched()...)
	lad.words = len(lad.written) / len(lad.rungs)
	from := 0
	for p, end := range ends {
		if end > 0 {
			lad.points[p].delta, from = slab[from:end:end], end
		}
	}
	return lad
}

// below returns the index of the rung at or below cycle t >= start.
func (lad *ladder) below(t uint64) int {
	return int(min((t-lad.start)/lad.stride, uint64(len(lad.rungs)-1)))
}

// point returns the fork point at or below cycle t past rung i, nil when
// the rung itself is the latest golden state at or below t.
func (lad *ladder) point(i int, t uint64) *forkPoint {
	if lad.step == 0 || t-lad.rungs[i].core.Cycle() < lad.step {
		return nil
	}
	k := min((t-lad.rungs[i].core.Cycle())/lad.step, forkParts-1)
	if p := &lad.points[i*(forkParts-1)+int(k)-1]; p.delta != nil {
		return p
	}
	return nil // the run ended before it: the rung is
}

// fork puts eng on the golden state at or below cycle t: rung below(t)'s
// state restored onto its core, and the fork point's applied on top; its
// memory re-pointed at the rung's image, and the golden writes up to the
// fork point stored into it; its bus and comparator as an uninterrupted
// run's would be there — no mismatch, the write index at the golden
// position. Nothing is allocated once the engine is warm.
func (lad *ladder) fork(eng *engine, t uint64) {
	i := lad.below(t)
	g, core, bus := &lad.rungs[i], eng.core, eng.core.Bus
	g.img.ForkInto(bus.Mem)
	if err := lad.restore(eng, i); err != nil {
		// Every core of a runner is built by freshCore, like the one the
		// rungs were frozen from; a shape mismatch is a bug, not an input.
		panic("fault: golden rung does not fit the worker core: " + err.Error())
	}
	bus.Reset()
	bus.Trace.Exited, bus.Trace.ExitCode = lad.exited, lad.exitCode
	eng.cmp = comparator{mismatchAt: -1, idx: g.writes}
	if p := lad.point(i, t); p != nil {
		core.ApplyDelta(p.delta)
		for _, a := range lad.golden[g.writes:p.writes] {
			store(bus.Mem, a)
		}
		eng.cmp.idx = p.writes
	}
}

// nearRungs is how far apart, in rungs, an engine's core and the rung it
// is forked onto may be for the fork to copy only the words that can
// differ (rtl.Kernel.RestoreNear); farther, the union of the intervals'
// written words costs more than it saves and the rung is copied whole.
const nearRungs = 16

// restore loads rung i's core state onto eng's core: by RestoreNear when
// the core sits on a rung at most nearRungs away (eng.base), where its
// arrays differ from rung i's only in the words it wrote and the words the
// golden run wrote between the two rungs. eng.near is cleared for Diff.
func (lad *ladder) restore(eng *engine, i int) error {
	var err error
	if b := eng.base; b >= 0 && b-i <= nearRungs && i-b <= nearRungs {
		for j := min(b, i); j < max(b, i); j++ {
			lad.orWritten(eng.near, j)
		}
		err = eng.core.RestoreNear(lad.rungs[i].core, lad.rungs[b].core, eng.near)
	} else {
		err = eng.core.Restore(lad.rungs[i].core)
		if len(eng.near) != lad.words {
			eng.near = make([]uint64, lad.words)
		}
	}
	clear(eng.near)
	eng.base, eng.nearTo = i, i
	return err
}

// near returns the array words in which rung i may differ from the rung
// eng's core was forked from, i at or past it: the golden writes between
// them, gathered into eng.near as the universe passes rungs.
func (lad *ladder) near(eng *engine, i int) []uint64 {
	for ; eng.nearTo < i; eng.nearTo++ {
		lad.orWritten(eng.near, eng.nearTo)
	}
	return eng.near
}

// orWritten ORs into dst the array words the golden run wrote in rung
// interval j.
func (lad *ladder) orWritten(dst []uint64, j int) {
	for w, m := range lad.written[j*lad.words : (j+1)*lad.words] {
		dst[w] |= m
	}
}

// store writes a golden off-core write's data into m as mem.Bus.Write did.
func store(m *mem.Memory, a mem.Access) {
	switch a.Size {
	case 1:
		m.Write8(a.Addr, uint8(a.Data))
	case 2:
		m.Write16(a.Addr, uint16(a.Data))
	default:
		m.Write32(a.Addr, a.Data)
	}
}

// materialize positions eng on the golden trajectory at cycle t: fork the
// golden state at or below t, a rung or a fork point — or, with no ladder,
// reset the core over the pristine image — then replay clean cycles (fewer
// than stride/forkParts past a fork point). replayed is the number of
// cycles stepped. A t beyond the golden run's end leaves the core exited
// where the golden run did.
func (r *Runner) materialize(eng *engine, lad *ladder, t uint64) (replayed uint64) {
	core := eng.core
	if lad == nil {
		r.baseImg.ForkInto(core.Bus.Mem)
		core.Reset()
		core.Bus.Reset()
		eng.cmp = comparator{mismatchAt: -1}
	} else {
		r.met.snapshots.Inc()
		lad.fork(eng, t)
	}
	from := core.Cycles()
	for core.Cycles() < t && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	replayed = core.Cycles() - from
	r.met.replayCycles.Add(float64(replayed))
	return replayed
}
