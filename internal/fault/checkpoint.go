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
// cycles) and sets the granularity of the reconvergence check.
const rungSpacing = 128

// maxRungs caps a ladder's length: each rung holds a copy of the kernel
// slabs (~13 KB) and of the memory pages dirtied since the rung before,
// and a cached runner pins its ladder, so a long golden run widens the
// spacing (in multiples of rungSpacing) instead of adding rungs.
const maxRungs = 64

// rung is the forkable golden-run state at one cycle.
type rung struct {
	core *leon3.Snapshot
	img  *mem.Image
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
	lad := &ladder{start: core.Cycles(), exited: bus.Trace.Exited, exitCode: bus.Trace.ExitCode}
	span := r.GoldenCycles - lad.start
	lad.stride = rungSpacing * max(1, (span+rungSpacing*maxRungs-1)/(rungSpacing*maxRungs))
	for {
		if (core.Cycles()-lad.start)%lad.stride == 0 {
			lad.rungs = append(lad.rungs, rung{
				core:   core.Snapshot(),
				img:    bus.Mem.Snapshot(),
				writes: len(bus.Trace.Writes),
			})
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

// fork restores rung i onto core over a fresh copy-on-write fork of the
// rung's memory image.
func (lad *ladder) fork(core *leon3.Core, i int) *mem.Bus {
	g := &lad.rungs[i]
	bus := mem.NewBus(g.img.Fork())
	core.Bus = bus
	if err := core.Restore(g.core); err != nil {
		// Every core of a runner is built by freshCore, like the one the
		// rungs were frozen from; a shape mismatch is a bug, not an input.
		panic("fault: golden rung does not fit the worker core: " + err.Error())
	}
	bus.Trace.Exited, bus.Trace.ExitCode = lad.exited, lad.exitCode
	return bus
}

// materialize positions core on the golden trajectory at cycle t, with a
// fresh bus and comparator: fork the rung at or below t — or, with no
// ladder, reset the core over the pristine image — then replay clean
// cycles (fewer than one stride from a rung). The comparator comes out
// exactly as an uninterrupted run's would at t: no mismatch, write index
// at the golden position. replayed is the number of cycles stepped. A t
// beyond the golden run's end leaves the core exited where the golden
// run did.
func (r *Runner) materialize(core *leon3.Core, lad *ladder, t uint64) (bus *mem.Bus, c *comparator, replayed uint64) {
	if lad == nil {
		bus = mem.NewBus(r.baseImg.Fork())
		core.Bus = bus
		core.Reset()
		c = r.watch(bus, core, 0)
	} else {
		r.met.snapshots.Inc()
		i := lad.below(t)
		bus = lad.fork(core, i)
		c = r.watch(bus, core, lad.rungs[i].writes)
	}
	from := core.Cycles()
	for core.Cycles() < t && core.Status() == iss.StatusRunning {
		core.StepCycle()
	}
	return bus, c, core.Cycles() - from
}
