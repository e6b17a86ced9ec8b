package fault

import (
	"math/bits"
	"time"

	"repro/internal/iss"
	"repro/internal/leon3"
	"repro/internal/rtl"
)

// This file implements the bit-parallel (PPSFP) campaign engine: one
// witnessed golden pass resolves up to 64 fault universes ("lanes") at
// once, and only the lanes whose fault is actually read with a differing
// value — or, for an upset memory-array word, read at all before it is
// overwritten — ever pay for a scalar simulation.
//
// Classic PPSFP packs one gate-level net's value across 64 test patterns
// into a machine word. That transplant is impossible for a word-level
// cycle-based RTL model — a 32-bit adder cannot be evaluated 64-ways
// bitwise — so the bit-parallel dimension here is the *activation
// predicate* instead. Fault forcing in the rtl kernel is strictly
// read-side: an armed fault never mutates raw slab state, it only edits
// the value consumers observe. A faulted universe whose raw state still
// equals the golden run's therefore diverges exactly at the first cycle
// where some process reads the faulted net and the forced bit differs
// from the clean bit. During one shared golden continuation pass, a
// rtl.Witness accumulates per-net read observations (Ones/Zeros masks);
// whether any of a batch's lanes activates at a cycle is then one AND
// per lane against its net's accumulator — all 64 bit positions of a net
// checked at once, which is where the 64-way parallelism lives.
//
// A BitFlip is the one model that does mutate raw state, and on a signal
// the upset spreads through raw copies (Hold, the clock edge) that no Get
// ever witnesses. A memory-array word is different: it changes only
// through MemArray.Write, which replaces the whole word, and the design
// sees it only through MemArray.Read. Until the word is next touched the
// flipped universe equals the golden one in everything but that bit, so
// the witness's write side decides the lane: written first, the upset is
// dead and the lane is free; read first, the lane activates at that read
// and the bit is flipped there instead of at the sampled instant.
//
// Lanes that never activate are finalized from the golden trajectory
// without simulating a single faulted cycle. Activated lanes fork a
// scalar continuation from the golden ladder at their first activation
// cycle (materialize: nearest rung, bounded replay) and run the engine's
// one run loop from there (Runner.resolve) — which is why a batched
// campaign is byte-identical to a scalar one (TestEngineEquivalence
// checks this for every fault model). A forked lane that heals is
// dropped back onto the golden trajectory, or teleported forward to its
// next activation cycle. The pass itself keeps no golden state: it
// starts from rung 0 of the runner's shared ladder and only witnesses.

// maxLanes is the lane capacity of one batch: a pass records one
// activation word per golden cycle, one bit per lane, which is also the
// PPSFP word width the design is named for; 64 keeps batch bookkeeping
// and stop-rule granularity bounded.
const maxLanes = 64

// planItem is one dispatch granule of a campaign: a single scalar
// experiment (lanes nil) or a batch of experiment indices.
type planItem struct {
	idx   int
	lanes []int
}

// planBatches partitions a campaign's experiments into dispatch
// granules. Under NoCheckpoint — the reference engine — every experiment
// is its own scalar granule. Otherwise an experiment is batchable when
// the witnessed pass can reason about it: the permanent models,
// SETPulse, and BitFlip on a memory-array word (see the file comment).
// A BitFlip on a signal mutates raw state that propagates through raw
// register copies without ever being "read", so witness gating would be
// unsound; a hand-built transient before the ladder's first rung cannot
// fork from it; and an invalid node must reproduce the scalar engine's
// inject-error result — those three run scalar. Batches are filled in
// input order; result content is independent of the partition, so the
// plan shape is free to change without affecting campaign or shard
// determinism.
func (r *Runner) planBatches(exps []Experiment) []planItem {
	plan := make([]planItem, 0, len(exps))
	if r.opts.NoCheckpoint {
		for i := range exps {
			plan = append(plan, planItem{idx: i})
		}
		return plan
	}
	eng := r.getEngine()
	defer r.putEngine(eng)
	k := eng.core.K

	var cur []int
	flush := func() {
		if len(cur) > 0 {
			r.met.lanesPlanned.Add(float64(len(cur)))
			plan = append(plan, planItem{idx: -1, lanes: cur})
			cur = nil
		}
	}
	for i, e := range exps {
		batchable := (e.Model != rtl.BitFlip || k.IsArrayWord(e.Node.Node)) &&
			!(e.Model.Transient() && e.AtCycle < r.opts.InjectAtCycle) &&
			k.NodeValid(e.Node.Node)
		if !batchable {
			plan = append(plan, planItem{idx: i})
			continue
		}
		cur = append(cur, i)
		if len(cur) == maxLanes {
			flush()
		}
	}
	flush()
	return plan
}

// lane is one fault universe: a lane of a batch pass, or a scalar
// experiment on its own.
type lane struct {
	e        Experiment
	f        rtl.Fault
	injectAt uint64
	pulseEnd uint64 // SETPulse window end; 0 for the other models
	// activateAt is the golden cycle at which the universe first differs
	// from the golden one in anything a consumer saw: the injection
	// instant for a scalar experiment, for an activated batch lane the
	// first cycle at which a consumer read the faulted net with a
	// differing bit — for a BitFlip lane, read the upset word at all.
	activateAt uint64

	// Batch lanes only. act is the pass's activation record — word t-start
	// has bit slot set when the lane's probe fired at golden cycle t — and
	// is nil for a scalar experiment. sampled is the raw word the lane's
	// net carried at the injection instant (charge-sampling models).
	act     []uint64
	slot    uint
	sampled uint64
}

// probe is the activation predicate of one batch lane, kept apart from
// the lane so the pass's per-cycle loop walks one compact array: the
// probe fires when some consumer read the faulted bit with the polarity
// the forcing would invert.
type probe struct {
	net   int32 // witness net index (< maxLanes)
	shift uint8 // Node.Bit (< 64)
	// forcedOne is the armed polarity of the faulted bit; for the
	// charge-sampling models it is derived from lane.sampled. armed is
	// false while it is still unknown (a transient lane whose instant the
	// pass has not reached).
	forcedOne bool
	armed     bool
	// flip marks a BitFlip lane on an array word. Its probe arms at the
	// lane's instant and is spent by the word's next access: a write
	// before any read kills it, the first read fires it — either polarity,
	// the flipped bit differs from the clean one whatever it holds.
	flip bool
}

// fires reports whether a cycle's observations activate the probe, and
// disarms a flip probe the cycle its word is touched.
func (p *probe) fires(acc []rtl.WitnessAcc) bool {
	if !p.armed {
		return false
	}
	a := &acc[p.net]
	if p.flip {
		read := a.Ones|a.Zeros != 0
		p.armed = !read && !a.WriteFirst
		return read && !a.WriteFirst
	}
	m := a.Ones
	if p.forcedOne {
		m = a.Zeros
	}
	return m>>p.shift&1 != 0
}

// newLane describes experiment e's universe as a scalar run: it leaves
// the golden trajectory at its injection instant.
func (r *Runner) newLane(e Experiment) lane {
	l := lane{e: e, f: rtl.Fault{Node: e.Node.Node, Model: e.Model}, injectAt: r.armAt(e)}
	l.activateAt = l.injectAt
	if e.Model == rtl.SETPulse {
		l.pulseEnd = l.injectAt + r.opts.PulseCycles
	}
	return l
}

// result returns the lane's result before any verdict: no effect, no
// latency, no cycles.
func (l *lane) result() Result {
	return Result{Fault: l.f, Unit: l.e.Node.Unit, Latency: -1, InjectAt: l.injectAt}
}

// inWindow reports whether the lane's forcing is armed at golden cycle
// t. Permanent lanes are armed from the injection instant onward;
// SETPulse lanes only within their pulse window.
func (l *lane) inWindow(t uint64) bool {
	return t >= l.injectAt && (l.pulseEnd == 0 || t < l.pulseEnd)
}

// healable reports whether the lane's universe may be compared against
// the golden rung at cycle t: either the witnessed pass knows when its
// forcing is next read divergently (batch lanes), or nothing is armed any
// more — a flip from the start, a pulse once its window has closed. A
// scalar permanent fault is never comparable: equal raw state says
// nothing about when its forcing will next be read.
func (l *lane) healable(t uint64) bool {
	return l.act != nil || l.e.Model.Transient() && t >= l.pulseEnd
}

// runBatch executes one batch: a single witnessed golden continuation
// pass over all lanes, then per-lane resolution. The returned results
// are positionally parallel to idxs and byte-identical to what RunOne
// would produce for each experiment.
func (r *Runner) runBatch(exps []Experiment, idxs []int) []Result {
	lad := r.ladder()
	eng := r.getEngine()
	defer r.putEngine(eng)
	core := eng.core
	lad.fork(core, 0)
	start := lad.start

	// Build the lane set and the deduplicated witness net list (two
	// lanes may fault different bits, or different models, of one net).
	lanes := make([]lane, len(idxs))
	probes := make([]probe, len(idxs))
	netIdx := map[rtl.WitnessNet]int{}
	var nets []rtl.WitnessNet
	for j, i := range idxs {
		e := exps[i]
		n := rtl.WitnessNet{Name: e.Node.Node.Name, Word: e.Node.Node.Word}
		ni, ok := netIdx[n]
		if !ok {
			ni = len(nets)
			netIdx[n] = ni
			nets = append(nets, n)
		}
		lanes[j] = r.newLane(e)
		lanes[j].slot = uint(j)
		probes[j] = probe{net: int32(ni), shift: uint8(e.Node.Node.Bit), flip: e.Model == rtl.BitFlip}
	}
	w, err := core.K.StartWitness(nets)
	if err != nil {
		return r.runScalarFallback(exps, idxs)
	}

	// Arm the permanent lanes' polarities; the charge-sampling models
	// read the net's raw word at the injection instant, which for
	// permanents is the pass start (exactly the value a scalar Inject at
	// that boundary would sample). Transient lanes stay unarmed until the
	// pass reaches their instant.
	unarmed := 0
	for j := range lanes {
		l, p := &lanes[j], &probes[j]
		switch l.e.Model {
		case rtl.StuckAt1:
			p.forcedOne, p.armed = true, true
		case rtl.StuckAt0:
			p.forcedOne, p.armed = false, true
		case rtl.OpenLine:
			l.sampled = w.Sample(int(p.net))
			p.forcedOne, p.armed = l.sampled>>p.shift&1 != 0, true
		default:
			unarmed++
		}
	}

	// The witnessed golden pass: one clean continuation from rung 0 to
	// program exit, arming transient lanes as their instants are reached and
	// recording one activation word per cycle — bit j set when lane j's
	// probe fired. The words are all a healed lane needs to find its next
	// activation, so the record is 8 bytes per golden cycle whatever the
	// net count, and its buffer stays with the pooled engine.
	act := eng.act[:0]
	acc := w.Accs()
	var activated uint64 // lanes whose first activation is known
	var passStart time.Time
	if r.met.live {
		// Behind the live flag: an unregistered engine never reads the
		// clock, and the value only feeds the golden-pass rate metric.
		passStart = time.Now() //lint:allow det live-guarded golden-pass metric
	}
	for core.Status() == iss.StatusRunning {
		t := core.Cycles()
		if unarmed > 0 {
			for j := range lanes {
				if l, p := &lanes[j], &probes[j]; !p.armed && l.injectAt == t {
					l.sampled = w.Sample(int(p.net))
					// A SET glitch drives the complement of the charge (a
					// flip probe ignores the polarity).
					p.forcedOne, p.armed = l.sampled>>p.shift&1 == 0, true
					unarmed--
				}
			}
		}
		core.StepCycle()
		var word uint64
		for j := range probes {
			if probes[j].fires(acc) {
				word |= 1 << uint(j)
			}
		}
		act = append(act, word)
		for m := word &^ activated; m != 0; m &= m - 1 {
			j := bits.TrailingZeros64(m)
			if l := &lanes[j]; l.inWindow(t) {
				l.activateAt = t
				activated |= 1 << uint(j)
			}
		}
		for i := range acc {
			acc[i] = rtl.WitnessAcc{}
		}
	}
	w.Stop()
	eng.act = act
	goldenEnd := core.Cycles()
	if r.met.live {
		r.met.goldenSeconds.Add(time.Since(passStart).Seconds()) //lint:allow det live-guarded golden-pass metric
		r.met.goldenCycles.Add(float64(goldenEnd - start))
	}

	// Lane resolution. Never-activated lanes tracked the golden
	// trajectory bit-for-bit to program exit: no consumer ever read
	// their faulted bit with a differing value (an upset array word was
	// overwritten, or left alone, before any read), so the scalar run
	// would have produced the golden trace and length exactly.
	results := make([]Result, len(lanes))
	for j := range lanes {
		l := &lanes[j]
		if activated>>uint(j)&1 == 0 {
			r.met.lanesFree.Inc()
			results[j] = l.result()
			results[j].Cycles = goldenEnd
			continue
		}
		r.met.lanesActivated.Inc()
		l.act = act
		results[j] = r.resolve(core, lad, l)
	}
	return results
}

// runScalarFallback resolves a batch through the scalar engine — the
// defensive path for a pass setup failure, which never happens with a
// same-program core and plan-validated nodes.
func (r *Runner) runScalarFallback(exps []Experiment, idxs []int) []Result {
	r.met.fallbacks.Add(float64(len(idxs)))
	out := make([]Result, len(idxs))
	for j, i := range idxs {
		out[j] = r.RunOne(exps[i])
	}
	return out
}

// nextActivation returns the first golden cycle at or after from at
// which the lane's forcing is read with a differing bit, or -1 if it
// never is again. start is the cycle of the activation record's first
// word; the record runs to the golden run's end. A scalar universe has
// no record and is only asked once nothing is armed (see healable), so
// the answer is never.
func (l *lane) nextActivation(start, from uint64) int64 {
	end := start + uint64(len(l.act))
	if l.pulseEnd != 0 && l.pulseEnd < end {
		end = l.pulseEnd
	}
	if from < l.injectAt {
		from = l.injectAt
	}
	for t := from; t < end; t++ {
		if l.act[t-start]>>l.slot&1 != 0 {
			return int64(t)
		}
	}
	return -1
}

// arm applies the lane's fault to a core positioned on the golden
// trajectory at the lane's activation cycle. A batch lane may sit past
// its injection instant there, so the charge-sampling models take their
// frozen value from the sample the pass recorded at that instant —
// exactly the forcing a scalar Inject at the original instant arms; a
// scalar universe sits on the instant itself and samples the present
// state.
func (l *lane) arm(core *leon3.Core) error {
	if l.act != nil && (l.e.Model == rtl.OpenLine || l.e.Model == rtl.SETPulse) {
		return core.K.InjectForced(l.f, l.sampled)
	}
	return core.K.Inject(l.f)
}
