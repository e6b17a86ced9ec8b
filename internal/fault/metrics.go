package fault

import "repro/internal/obs"

// engineMetrics is the fault engine's counter set. All handles are
// nil-safe no-ops when the runner was built without a registry, so the
// count points below cost one nil check on the library path; `live`
// additionally gates the few points that would otherwise pay for a
// time.Now() just to discard it.
type engineMetrics struct {
	live bool

	// experiments counts every classified experiment, scalar, forked or
	// batched: runLane counts it as it classifies it.
	experiments *obs.Counter
	// lanesPlanned/Activated/Free follow the PPSFP funnel: experiments the
	// plan made lanes over their net's log, lanes whose fault the golden run read
	// divergently (an upset word: read at all before being replaced), and
	// lanes finalized from the golden trajectory without a single faulted
	// cycle.
	lanesPlanned   *obs.Counter
	lanesActivated *obs.Counter
	lanesFree      *obs.Counter
	// snapshots counts materializations from a golden-ladder rung: scalar
	// experiment forks, activated-lane forks and teleports. A teleport
	// trades stepped cycles for a fork, so this may rise where
	// faultedCycles, the cost, falls.
	snapshots *obs.Counter
	// reconverged counts healed universes, and unarmed ones parked golden
	// but for a few words, dropped back onto the golden trajectory
	// (finalized as no-effect, or teleported to their next activation);
	// faultedCycles counts every cycle stepped outside a
	// golden walk, replayCycles the part of it that materialize stepped
	// clean from a rung (or from reset) to where a universe leaves the
	// golden trajectory. All are deterministic work counters: a fixed
	// campaign reads the same values on any host.
	reconverged   *obs.Counter
	faultedCycles *obs.Counter
	replayCycles  *obs.Counter
	// cyclesBy splits faultedCycles by the universe's ending; proven counts
	// verdicts reached without stepping to them, by proof.
	cyclesBy [healedEnding + 1]*obs.Counter
	proven   [len(proofs)]*obs.Counter
	// fallbacks counts lanes runLane ran scalar because the campaign has no
	// read logs — only when the logging walk's witness failed to arm.
	fallbacks *obs.Counter
	// goldenCycles/goldenSeconds accumulate witnessed golden-walk work (one
	// walk per campaign that brings a net the runner has not logged); their
	// quotient is the walk's cycles/s.
	goldenCycles  *obs.Counter
	goldenSeconds *obs.Counter
	// logLogged/Hit/Scratch count the nets campaigns asked the read log for:
	// walked and kept, answered from the log, walked for one campaign over
	// the budget. logBytes is what the registry's runners' logs retain.
	logLogged, logHit, logScratch *obs.Counter
	logBytes                      *obs.Gauge
}

// proofs labels engine_verdicts_proven_total: a twin of a forcing the same
// call resolved, a recurring state, a time-shifted golden state, a core whose
// EX gate stays shut to the budget (resolve), a forcing an earlier call on the
// runner resolved (resolveOnce), a universe parked on the logs of the few
// words it differs from the golden one in, none of which is read again
// (Runner.park), a universe parked in a state an earlier call's universe
// passed through, whose ending it takes (Runner.known).
var proofs = [...]string{"equivalent", "recurrent", "shifted", "wedged", "known", "parked", "future"}

const (
	provenEquivalent = iota
	provenRecurrent
	provenShifted
	provenWedged
	provenKnown
	provenParked
	provenFuture
)

// healedEnding is cyclesBy's slot past the outcomes: a healed universe,
// apart from the no-effects that ran to program exit.
const healedEnding = OutcomeHang + 1

// cycles books the n cycles one universe stepped, replay included.
func (m *engineMetrics) cycles(n uint64, o Outcome, healed bool) {
	if healed {
		o = healedEnding
	}
	m.faultedCycles.Add(float64(n))
	m.cyclesBy[o].Add(float64(n))
}

func newEngineMetrics(r *obs.Registry) engineMetrics {
	byOutcome := r.CounterVec("engine_faulted_cycles_by_outcome_total",
		"engine_faulted_cycles_total split by how the universe ended; healed ones apart from no-effects that ran to exit.", "outcome")
	byProof := r.CounterVec("engine_verdicts_proven_total",
		"Verdicts reached without stepping to them: a twin of a forcing the same call resolved (equivalent), one the runner's verdict table kept from an earlier call (known), a recurring state, a time-shifted golden state, a dead EX gate, a transient universe golden but for a few state words, parked on their read logs, none read again before it is replaced or the run ends (parked), a transient universe parked in a state — rung and differing words — that a universe of an earlier call on the runner passed through, whose ending it takes from the runner's table of known futures (future).", "proof")
	m := engineMetrics{
		live: r != nil,
		experiments: r.Counter("engine_experiments_total",
			"Fault-injection experiments executed and classified."),
		lanesPlanned: r.Counter("engine_batch_lanes_planned_total",
			"Experiments placed into bit-parallel batch lanes."),
		lanesActivated: r.Counter("engine_batch_lanes_activated_total",
			"Batch lanes whose fault the golden run read divergently, by its read log."),
		lanesFree: r.Counter("engine_batch_lanes_free_total",
			"Batch lanes finalized from the golden trajectory without scalar simulation."),
		snapshots: r.Counter("engine_snapshot_materializations_total",
			"Experiments, batch lanes and teleports materialized from a golden-ladder rung or the fork point past it. Rises when parked universes teleport (a restore and under a quarter stride of replay in place of the cycles in between): engine_faulted_cycles_total is the cost."),
		reconverged: r.Counter("engine_reconverged_total",
			"Healed experiments and batch lanes, and transient universes golden but for a few state words parked on those words' read logs, dropped back onto the golden trajectory: finalized there or teleported to the first read of a word still differing, which is XORed back in."),
		faultedCycles: r.Counter("engine_faulted_cycles_total",
			"Cycles simulated outside witnessed golden walks, engine_replay_cycles_total included."),
		replayCycles: r.Counter("engine_replay_cycles_total",
			"Clean cycles replayed from a golden-ladder rung or fork point (or from reset) to the cycle a universe was materialized at: under a quarter stride each on a ladder."),
		fallbacks: r.Counter("engine_scalar_fallbacks_total",
			"Experiments resolved through the scalar fallback because the golden read log's witness failed to arm."),
		goldenCycles: r.Counter("engine_golden_pass_cycles_total",
			"Cycles simulated by witnessed golden walks: one continuation per campaign that brings a net the runner's read log lacks, none on a warm runner."),
		goldenSeconds: r.Counter("engine_golden_pass_seconds_total",
			"Wall-clock seconds spent in witnessed golden walks."),
		logBytes: r.Gauge("engine_golden_log_bytes",
			"Bytes of golden read log retained, summed over the runners built on this registry (each bounded by a constant budget)."),
	}
	byResult := r.CounterVec("engine_golden_log_nets_total",
		"Nets campaigns asked the golden read log for: walked and kept, answered from the log, or walked for one campaign over the budget.", "result")
	m.logLogged, m.logHit, m.logScratch = byResult.With("logged"), byResult.With("hit"), byResult.With("scratch")
	for i := range m.cyclesBy {
		label := "healed"
		if i < int(healedEnding) {
			label = Outcome(i).String()
		}
		m.cyclesBy[i] = byOutcome.With(label)
	}
	for i, v := range proofs {
		m.proven[i] = byProof.With(v)
	}
	return m
}
