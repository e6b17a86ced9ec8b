package fault

import (
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/leon3"
	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/sparc"
)

// This file implements the bit-parallel (PPSFP) campaign engine: what the
// golden run read of a net decides, for every fault universe ("lane") on
// that net, whether and when the fault is actually read with a differing
// value — or, for an upset word, read at all before it is overwritten — and
// only those lanes ever pay for a scalar simulation.
// The reads come from the runner's read log (readlog.go), walked once per
// net: a lane is a cursor over its net's log, built by the worker that draws
// its experiment — the dispatch granule — and asked one question,
// nextActivation. Lanes share their net's log and nothing else, so none
// waits behind another.
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
// from the clean bit. During the witnessed golden walk a rtl.Witness
// accumulates per-net read observations (Ones/Zeros masks), logged as runs
// of equal cycles; whether a lane activates in a run is then one AND
// against the run's accumulator — all 64 bit positions of a net answered
// by one log, which is where the 64-way parallelism lives — and only the
// cycles at which the design touched the net are visited at all.
//
// A BitFlip is the one model that does mutate raw state. The design sees a
// memory-array word only through MemArray.Read and changes it only through
// MemArray.Write, which replaces the whole word; it sees a register only
// through Get, and each clock edge either carries the word over by a raw
// copy (Hold, Group.Hold) or replaces it with a scheduled value. Until the
// word is next read or replaced the flipped universe equals the golden one
// in everything but that bit — the seed — so the witness's write side
// decides the lane (rtl.WitnessAcc.WriteFirst; DESIGN.md §10 has the lemma):
// replaced first, the upset is dead and the lane is free; read first, the
// lane activates at that read and the bit is flipped there instead of at the
// sampled instant. A stepped universe that has shrunk back to golden but for
// a few words is such an upset on each of their logs again, from where it
// stands (Runner.park).
//
// Lanes that never activate are finalized from the golden trajectory
// without simulating a single faulted cycle. Activated lanes fork a
// scalar continuation from the golden ladder at their first activation
// cycle (materialize: nearest rung, bounded replay) and run the engine's
// one run loop from there (Runner.resolve) — which is why a batched
// campaign is byte-identical to a scalar one (TestEngineEquivalence
// checks this for every fault model) — once per forcing: an open-line
// lane is the twin of the stuck-at lane of its sampled charge, and the
// runner's verdict table hands it that lane's verdict (resolveOnce). A forked
// lane that heals is dropped back onto the golden trajectory, or
// teleported forward to its next activation cycle; one whose state
// recurs is a proven hang. A lane keeps no golden state and steps no
// golden cycle: a campaign whose nets are all logged only reads, and a lane
// takes an engine only to step its universe.

// verdicts is a runner's table of what its permanent forcings came to, kept
// as long as the runner, beside its ladder and its read log: every campaign,
// shard, audit and escalation on the runner resolves through it, so a
// forcing is stepped once per runner however the experiments were cut into
// calls. A forcing is a line stuck at, or left open on, one value from the
// runner's fixed instant on — the kernel arms an open line whose sampled
// charge is b exactly as it arms stuck-at-b, and Expand crosses every node
// with all three permanent models, so lanes of one forcing differ in
// Fault.Model and nothing else — and is keyed by (row, bit, forced
// polarity): on the RTL engine the row is the design table's net id, on the
// ISS engine the victim register, onto which every RTL node that hashes to
// the victim is the same run. A row holds two verdicts per bit of its net,
// allocated when a lane first arrives on the net and never moved, so a
// lookup is an index and no lock: a verdict that is resolved (call nonzero)
// is copied as it stands. The first lane to find one unresolved steps it
// under the verdict's lock, where a twin arriving meanwhile waits. Scheduling
// only: a verdict is a function of its forcing and of what the runner fixed
// at construction (program, instant, budget), a resolve is never abandoned
// half-way, and the from-reset reference keeps no table — so whether a lane
// computes a verdict or copies it changes no result, only the work counters.
// Permanent forcings alone enter, at most two per node of the population:
// bounded by construction, no budget. A transient is not looked up here:
// its instant, sampled per experiment, never recurs, so it is resolved
// directly. The states its universe parks in on the way do recur, and what
// they came to the runner keeps apart, by rung and differing words (futures,
// future.go).
type verdicts struct {
	rows    []atomic.Pointer[[]verdict] // by row; none under NoCheckpoint
	bits    []uint8                     // by row, the width of its net
	calls   atomic.Uint64               // calls begun on the runner; see begin
	entries *obs.Gauge                  // engine_verdict_table_entries
}

// verdict is what a forcing's universe came to; a lane reports it under its
// own Fault and Unit. The call that resolved it is stored last, after the
// three values, so a lane that loads a nonzero call may read them unlocked.
type verdict struct {
	call    atomic.Uint64 // the call that resolved it; 0 while unresolved
	mu      sync.Mutex    // held by the lane stepping it
	outcome Outcome
	latency int64
	cycles  uint64
}

// Ways a lane's verdict was reached: its universe was stepped, copied from a
// lane of the same call (an in-campaign twin), copied from an earlier call's.
const (
	verdictStepped = iota
	verdictTwin
	verdictKnown
)

// newVerdicts returns a table with one row per entry of bits, the width of
// the row's net; nil bits — the from-reset reference — keep none.
func newVerdicts(reg *obs.Registry, bits []uint8) verdicts {
	return verdicts{rows: make([]atomic.Pointer[[]verdict], len(bits)), bits: bits, entries: reg.Gauge("engine_verdict_table_entries",
		"Forcing→verdict entries retained, summed over the RTL and ISS runners built on this registry (each at most two per node of the population).")}
}

// begin numbers a call, so that its lanes can tell a twin from a verdict the
// runner already knew. The count is 64 bits wide: a warm daemon's runner
// begins thousands of calls a second, so 32 would wrap within days onto 0,
// the unresolved mark, and onto numbers its verdicts still carry.
func (t *verdicts) begin() uint64 { return t.calls.Add(1) }

// once fills res with the verdict of forcing bit of row to one (or to zero)
// — run's, called under the verdict's lock, if no lane of the forcing
// arrived on this runner before — and says how it was reached.
func (t *verdicts) once(row int32, bit int, one bool, call uint64, res *Result, run func()) int {
	p := t.rows[row].Load()
	if p == nil {
		p = t.grow(row)
	}
	i := 2 * bit
	if one {
		i++
	}
	v := &(*p)[i]
	if c := v.call.Load(); c != 0 {
		return v.copyTo(res, c, call)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c := v.call.Load(); c != 0 {
		return v.copyTo(res, c, call)
	}
	run()
	v.outcome, v.latency, v.cycles = res.Outcome, res.Latency, res.Cycles
	v.call.Store(call)
	t.entries.Add(1)
	return verdictStepped
}

// grow allocates row's verdicts, or returns those a racing lane published
// first.
func (t *verdicts) grow(row int32) *[]verdict {
	p := new([]verdict)
	*p = make([]verdict, 2*int(t.bits[row]))
	if t.rows[row].CompareAndSwap(nil, p) {
		return p
	}
	return t.rows[row].Load()
}

// copyTo fills res with v, which call c resolved, and says whether that was
// call's twin or a known verdict.
func (v *verdict) copyTo(res *Result, c, call uint64) int {
	res.Outcome, res.Latency, res.Cycles = v.outcome, v.latency, v.cycles
	if c == call {
		return verdictTwin
	}
	return verdictKnown
}

// held returns how many verdicts the table holds resolved and how many its
// rows have room for.
func (t *verdicts) held() (resolved, slots int) {
	for i := range t.rows {
		if p := t.rows[i].Load(); p != nil {
			for j := range *p {
				if (*p)[j].call.Load() != 0 {
					resolved++
				}
			}
			slots += len(*p)
		}
	}
	return resolved, slots
}

// memo is what the plan fixes for every lane of one campaign call and no
// worker writes: the deduplicated nets of the call's lanes (lanes may fault
// different bits, or models, of one net), their read logs, and the call's
// number in the runner's verdict table. Kept by the runner between campaigns,
// like its engines.
type memo struct {
	call uint64

	slot   []int32    // per net id of the design: 1 + the net's index in nets, 0 if not among them
	nets   []int32    // the call's distinct nets, as net ids
	extras []logExtra // per net: what its lanes ask of the log beyond the reads
	logs   []*netLog  // per net; empty if the logging walk's witness failed to arm
	netOf  []int32    // per experiment, its net; -1 for one that runs scalar
}

// planBatches says which of a campaign's experiments run as lanes over
// their net's log and which scalar (netOf < 0). Under NoCheckpoint — the
// reference engine — every experiment runs scalar and the memo is nil.
// Otherwise an experiment is a lane, but for three kinds that run scalar: a
// BitFlip on a net whose write side the witness cannot watch — a wire, which
// carries no state to the next cycle anyway, or a register too wide to tag
// (iu.md.acc, 64 bits); a hand-built transient before the ladder's first
// rung, which cannot fork from it; and an invalid node, which must reproduce
// the scalar engine's inject-error result. What a node is comes from its
// facts (NodeInfo.plan), and its net from the id they carry: the loop looks
// no name up and hashes none for an enumerated node.
//
// The plan also asks the runner, once, for the read logs of the lanes' nets
// (readLogs): the one place a campaign may step golden cycles. Result
// content does not depend on which experiments are lanes.
func (r *Runner) planBatches(exps []Experiment) *memo {
	if r.opts.NoCheckpoint {
		return nil
	}
	m := r.memos.get()
	if m == nil {
		m = &memo{slot: make([]int32, len(design().nets))}
	}
	m.call = r.verdicts.begin()
	m.nets, m.extras = m.nets[:0], m.extras[:0]
	m.netOf = slices.Grow(m.netOf[:0], len(exps))[:len(exps)]
	lanes := 0
	for i := range exps {
		e := &exps[i]
		m.netOf[i] = -1
		facts, net := e.Node.plan()
		var extra logExtra
		switch {
		case e.Model == rtl.SETPulse:
			extra = logValues
		case e.Model == rtl.BitFlip && facts&edgesWatchable != 0:
			extra = logEdges
		case e.Model == rtl.BitFlip && facts&arrayWord == 0:
			continue
		}
		if e.Model.Transient() && e.AtCycle < r.opts.InjectAtCycle || facts&nodeValid == 0 {
			continue
		}
		s := m.slot[net]
		if s == 0 {
			m.nets, m.extras = append(m.nets, net), append(m.extras, 0)
			s = int32(len(m.nets))
			m.slot[net] = s
		}
		m.netOf[i] = s - 1
		m.extras[s-1] |= extra
		lanes++
	}
	for _, net := range m.nets {
		m.slot[net] = 0 // the slots are the plan's scratch: zero for the next
	}
	r.met.lanesPlanned.Add(float64(lanes))
	r.readLogs(m)
	return m
}

// lane is one fault universe: a cursor over its net's log, or a scalar
// experiment on its own.
type lane struct {
	f        rtl.Fault
	unit     sparc.Unit
	injectAt uint64
	pulseEnd uint64 // SETPulse window end; 0 for the other models
	call     uint64 // the campaign call it belongs to; 0 outside one (RunOne)
	// activateAt is the golden cycle at which the universe first differs
	// from the golden one in anything a consumer saw: the injection
	// instant for a scalar experiment, for an activated batch lane the
	// first cycle at which a consumer read the faulted net with a
	// differing bit — for an upset lane, read the upset word at all, or
	// which ended on an edge that took the register's pending word.
	activateAt uint64

	// Batch lanes only. log is what the golden run read of the lane's net,
	// nil for a scalar experiment. sampled is the raw word the net carried
	// at the injection instant (charge-sampling models).
	log     *netLog
	sampled uint64
	probe
}

// probe is the activation predicate of one batch lane: it fires on a run of
// the net's log in which some consumer read the faulted bit with the
// polarity the forcing would invert.
type probe struct {
	shift uint8 // Node.Bit (< 64)
	// forcedOne is the armed polarity of the faulted bit; for the
	// charge-sampling models it is derived from lane.sampled.
	forcedOne bool
	// flip marks an upset lane. Its probe is decided by the next thing
	// that happens to the word: replaced before any read, it is dead; the
	// first read fires it — either polarity, the flipped bit differs from
	// the clean one whatever it holds.
	flip bool
}

// newLane describes experiment e's universe in l, a zero lane but for its
// call, as a scalar run: it leaves the golden trajectory at its injection
// instant.
func (r *Runner) newLane(l *lane, e *Experiment) {
	l.f, l.unit, l.injectAt = rtl.Fault{Node: e.Node.Node, Model: e.Model}, e.Node.Unit, r.armAt(e)
	l.activateAt = l.injectAt
	if e.Model == rtl.SETPulse {
		l.pulseEnd = l.injectAt + r.opts.PulseCycles
	}
}

// batchLane describes experiment e's universe in l, a zero lane but for its
// call, as a cursor over its net's log: armed from its injection instant — a
// charge-sampling model's polarity from the logged raw word there — it
// leaves the golden trajectory at its first activation, if it has one, and
// says whether it does.
func (r *Runner) batchLane(l *lane, e *Experiment, lg *netLog) (activated bool) {
	r.newLane(l, e)
	l.log = lg
	l.probe = probe{shift: uint8(e.Node.Node.Bit), flip: e.Model == rtl.BitFlip}
	switch e.Model {
	case rtl.StuckAt1:
		l.forcedOne = true
	case rtl.OpenLine:
		l.sampled = lg.v0
		l.forcedOne = l.sampled>>l.shift&1 != 0
	case rtl.SETPulse:
		// A SET glitch drives the complement of the charge.
		l.sampled = lg.valueAt(l.injectAt)
		l.forcedOne = l.sampled>>l.shift&1 == 0
	}
	at := l.nextActivation(l.injectAt)
	if at >= 0 {
		l.activateAt = uint64(at)
	}
	return at >= 0
}

// result sets res to the lane's result before any verdict: no effect, no
// latency, no cycles.
func (l *lane) result(res *Result) {
	res.Fault, res.Unit, res.Outcome = l.f, l.unit, OutcomeNoEffect
	res.Latency, res.Cycles, res.InjectAt = -1, 0, l.injectAt
}

// runLane executes experiment e — number i of the campaign m planned, or,
// with m nil, a scalar run — into res: the RTL engine's dispatch granule,
// built and classified here, on a worker of crew c (nil outside a
// campaign). res is byte-identical to what RunOne produces for e, whatever
// the plan.
func (r *Runner) runLane(e *Experiment, m *memo, i int, res *Result, c *crew) {
	r.met.experiments.Inc()
	var l lane
	lad := r.ladder()
	if m != nil {
		l.call = m.call
	}
	if m != nil && m.netOf[i] >= 0 {
		if len(m.logs) == 0 {
			// The logging walk's witness failed to arm, which never happens
			// with a same-program core and plan-validated nodes: scalar.
			r.met.fallbacks.Inc()
		} else if r.batchLane(&l, e, m.logs[m.netOf[i]]) {
			r.met.lanesActivated.Inc()
			r.resolveOnce(lad, &l, m.nets[m.netOf[i]], m.call, res, c)
			return
		} else {
			// A never-activated lane tracked the golden trajectory
			// bit-for-bit to program exit: no consumer ever read its faulted
			// bit with a differing value (an upset word was replaced, or left
			// alone, before any read), so the scalar run would have produced
			// the golden trace and length exactly.
			r.met.lanesFree.Inc()
			l.result(res)
			res.Cycles = r.GoldenCycles
			return
		}
	}
	r.newLane(&l, e)
	if lad != nil && l.injectAt < r.opts.InjectAtCycle {
		lad = nil // a hand-built transient before the first rung: from reset
	}
	r.step(lad, &l, res, c)
}

// resolveOnce fills res with activated lane l's verdict: a permanent
// forcing's through the runner's table, on the lane's net id, under the
// lane's own Fault; a transient — keyed by an instant of its own — stepped
// here. A lane that copies its verdict takes no engine.
func (r *Runner) resolveOnce(lad *ladder, l *lane, net int32, call uint64, res *Result, c *crew) {
	if l.f.Model.Transient() {
		r.step(lad, l, res, c)
		return
	}
	l.result(res)
	switch r.verdicts.once(net, l.f.Node.Bit, l.forcedOne, call, res, func() { r.step(lad, l, res, c) }) {
	case verdictTwin:
		r.met.proven[provenEquivalent].Inc()
	case verdictKnown:
		r.met.proven[provenKnown].Inc()
	}
}

// step resolves universe l into res on an engine taken for the run alone,
// waking the rest of crew c first: from here on the campaign is work.
func (r *Runner) step(lad *ladder, l *lane, res *Result, c *crew) {
	c.wake()
	eng := r.getEngine()
	r.resolve(eng, lad, l, res)
	r.putEngine(eng)
}

// nextActivation returns the first golden cycle at or after from — and no
// earlier than the lane's injection instant — at which the lane's forcing is
// read with a differing bit, or -1 if it never is again: a binary search into
// the net's runs, then the first run whose accumulator fires the probe. Asked
// from the log's start — every permanent lane is, at the runner's fixed
// instant — a forcing's answer is the first run that read its bit with the
// differing value, which the log keeps per bit (netLog.first). A glitch stops
// being read when its window closes; the log ends with the golden run. An
// upset is asked at its instant, where its universe is the golden one but for
// the seed bit, and is decided by the next thing the log holds for the word
// (netLog.upset): replaced unread it is dead, read it fires; so does, unread,
// a register's edge that takes the pending word, which an upset not yet
// carried over an edge never reached (conservative: it costs a fork, which
// steps the truth). A scalar universe has no log and is only asked once
// nothing is armed (see resolve), so the answer is never.
func (l *lane) nextActivation(from uint64) int64 {
	if l.log == nil {
		return -1
	}
	end := uint64(math.MaxUint64)
	if l.pulseEnd != 0 {
		end = l.pulseEnd
	}
	from = max(from, l.injectAt)
	runs := &l.log.runs
	if from >= end || runs.n == 0 {
		return -1
	}
	if l.flip {
		if at, read := l.log.upset(from); read {
			return at
		}
		return -1
	}
	if from <= uint64(runs.at(0).t) {
		read := 1 // the value whose read the forcing inverts
		if l.forcedOne {
			read = 0
		}
		k := l.log.first[read][l.shift]
		if k < 0 || uint64(runs.at(int(k)).t) >= end {
			return -1
		}
		return int64(runs.at(int(k)).t)
	}
	for i := l.log.runAt(from); i < runs.n && uint64(runs.at(i).t) < end; i++ {
		ru := runs.at(i)
		at := max(uint64(ru.t), from)
		m := ru.ones
		if l.forcedOne {
			m = ru.zeros
		}
		if m>>l.shift&1 != 0 {
			return int64(at)
		}
	}
	return -1
}

// runAt returns the index of the first run that ends after cycle from.
func (lg *netLog) runAt(from uint64) int {
	runs := &lg.runs
	return sort.Search(runs.n, func(i int) bool { ru := runs.at(i); return uint64(ru.t)+uint64(ru.n) > from })
}

// upset says what the log holds next for an upset its word has carried
// since a cycle boundary at or before from (the lemma of DESIGN.md §10): the
// first golden cycle at or after from in which the word is read, or its
// register's edge takes the pending word (read true), or in which it is
// replaced unread (read false); at is -1 if neither happens before the
// golden run ends.
func (lg *netLog) upset(from uint64) (at int64, read bool) {
	runs := &lg.runs
	for i := lg.runAt(from); i < runs.n; i++ {
		switch ru := runs.at(i); {
		case ru.writeFirst:
			return int64(max(uint64(ru.t), from)), false
		case ru.untouched || ru.ones|ru.zeros != 0:
			return int64(max(uint64(ru.t), from)), true
		}
	}
	return -1, false
}

// arm applies the lane's fault to a core positioned on the golden
// trajectory at the lane's activation cycle. A batch lane may sit past
// its injection instant there, so the charge-sampling models take their
// frozen value from the raw word the log holds for that instant —
// exactly the forcing a scalar Inject at the original instant arms — and an
// upset is flipped as the clock edges since have carried it; a scalar
// universe sits on the instant itself and samples the present state.
func (l *lane) arm(core *leon3.Core) error {
	switch {
	case l.log != nil && (l.f.Model == rtl.OpenLine || l.f.Model == rtl.SETPulse):
		return core.K.InjectForced(l.f, l.sampled)
	case l.flip && core.Cycles() > l.injectAt:
		return core.K.FlipCarried(l.f.Node)
	}
	return core.K.Inject(l.f)
}
