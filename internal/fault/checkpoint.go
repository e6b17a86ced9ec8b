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
// there. Every experiment of every campaign on the runner forks from the
// rung at or below the cycle where its universe first differs from the
// golden one (materialize), and a universe that provably re-equals a
// rung is dropped back onto the golden trajectory instead of being
// simulated to program exit (Runner.resolve). Rungs are immutable and
// their memory pages are shared copy-on-write, so any number of
// concurrent workers fork from one ladder.

// rungSpacing is the base distance between ladder rungs in cycles. It
// bounds materialization (fewer than one spacing of replayed clean
// cycles) and sets the granularity of the reconvergence check: a register
// file word stuck at a value its readers mask is read now and then and
// healed a cycle later, and is let go at the next rung.
const rungSpacing = 16

// maxRungs caps a ladder's length: each rung holds a copy of the kernel's
// committed state (~8 KB: one window of the ladder's single slab) and a
// cached runner pins its ladder, so a golden run past 8,192 cycles widens
// the spacing (in multiples of rungSpacing) instead of adding rungs.
const maxRungs = 512

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

// buildLadder re-runs the clean core once, from reset through the
// injection instant to program exit, freezing a rung every stride cycles
// from the injection instant on. This is the only time the warm-up
// prefix and the clean continuation are simulated for their state, no
// matter how many experiments and campaigns the runner serves.
func (r *Runner) buildLadder() *ladder {
	core, bus := r.freshCore()
	for core.Cycles() < r.opts.InjectAtCycle && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	lad := &ladder{start: core.Cycles(), stride: r.stride, exited: bus.Trace.Exited, exitCode: bus.Trace.ExitCode}
	span := r.GoldenCycles - lad.start
	if lad.stride == 0 {
		lad.stride = rungSpacing * max(1, (span+rungSpacing*maxRungs-1)/(rungSpacing*maxRungs))
	}
	// One rung per stride while the core runs, the first even if it does not.
	snaps := core.Snapshots(int(max(1, (span+lad.stride-1)/lad.stride)))
	lad.rungs = make([]rung, 0, len(snaps))
	for {
		if (core.Cycles()-lad.start)%lad.stride == 0 {
			g := rung{core: &snaps[len(lad.rungs)], writes: len(bus.Trace.Writes)}
			core.SnapshotInto(g.core)
			if n := len(lad.rungs); n > 0 && lad.rungs[n-1].writes == g.writes {
				g.img = lad.rungs[n-1].img
			} else {
				g.img = bus.Mem.Snapshot()
			}
			lad.rungs = append(lad.rungs, g)
		}
		if core.StepCycle() != iss.StatusRunning {
			return lad
		}
	}
}

// below returns the index of the rung at or below cycle t >= start.
func (lad *ladder) below(t uint64) int {
	return int(min((t-lad.start)/lad.stride, uint64(len(lad.rungs)-1)))
}

// fork puts eng on rung i: the rung's state restored onto its core, its
// memory re-pointed at the rung's image, its bus and comparator as an
// uninterrupted run's would be there — no mismatch, the write index at the
// golden position. Nothing is allocated.
func (lad *ladder) fork(eng *engine, i int) {
	g, bus := &lad.rungs[i], eng.core.Bus
	g.img.ForkInto(bus.Mem)
	if err := eng.core.Restore(g.core); err != nil {
		// Every core of a runner is built by freshCore, like the one the
		// rungs were frozen from; a shape mismatch is a bug, not an input.
		panic("fault: golden rung does not fit the worker core: " + err.Error())
	}
	bus.Reset()
	bus.Trace.Exited, bus.Trace.ExitCode = lad.exited, lad.exitCode
	eng.cmp = comparator{mismatchAt: -1, idx: g.writes}
}

// materialize positions eng on the golden trajectory at cycle t: fork the
// rung at or below t — or, with no ladder, reset the core over the
// pristine image — then replay clean cycles (fewer than one stride from a
// rung). replayed is the number of cycles stepped. A t beyond the golden
// run's end leaves the core exited where the golden run did.
func (r *Runner) materialize(eng *engine, lad *ladder, t uint64) (replayed uint64) {
	core := eng.core
	if lad == nil {
		r.baseImg.ForkInto(core.Bus.Mem)
		core.Reset()
		core.Bus.Reset()
		eng.cmp = comparator{mismatchAt: -1}
	} else {
		r.met.snapshots.Inc()
		lad.fork(eng, lad.below(t))
	}
	from := core.Cycles()
	for core.Cycles() < t && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	replayed = core.Cycles() - from
	r.met.replayCycles.Add(float64(replayed))
	return replayed
}
