package jobs

import (
	"errors"
	"sort"
	"strconv"
	"testing"
	"time"
)

// FuzzCoordinatorModel drives a Coordinator — built without an engine,
// which is the point of keeping it a bare state machine — through an
// arbitrary interleaving of the lease protocol and holds it to a trivial
// reference model: a FIFO of pending ranges, the set of held leases, the
// set of folded indices and two strike counters per shard.
//
// data[0] sizes the campaign, data[1] the shard count and whether the
// epsilon stop rule is on; every following byte is one operation (low
// nibble) on one held lease (high nibble): lease, clamped and unclamped
// progress, honest complete, partial complete, four malformed results,
// diverged golden metadata, fail, TTL reclaim of everything outstanding,
// and reports under a lease that was already settled. After the script
// the remaining work is completed honestly, which must terminate.
//
// Held throughout: a result is accepted, refused or answered ErrNoLease
// exactly when the model says so; leases are served in FIFO order; no
// lease's tally leaves [0, size] and the merged tally never leaves
// [0, total]. With the stop rule off, additionally: the campaign fails if
// and only if a shard struck out (maxShardAttempts failures or
// maxShardReclaims reclaims) or a result diverged, and otherwise merges
// every index exactly once, in order.
func FuzzCoordinatorModel(f *testing.F) {
	f.Add([]byte{12, 3, 0x00, 0x03, 0x00, 0x03, 0x00, 0x03})                                  // happy path
	f.Add([]byte{9, 1, 0x00, 0x0a, 0x00, 0x0a, 0x00, 0x0a})                                   // three fails poison
	f.Add([]byte{9, 0, 0, 11, 0, 11, 0, 11, 0, 11, 0, 11, 0, 11, 0, 11, 0, 11, 0, 11, 0, 11}) // ten reclaims poison
	f.Add([]byte{20, 4, 0x00, 0x00, 0x05, 0x16, 0x07, 0x18, 0x04, 0x14, 0x0b})                // malformed results, partial, reclaim
	f.Add([]byte{16, 2, 0x00, 0x09, 0x00})                                                    // diverged golden metadata
	f.Add([]byte{30, 0x83, 0x00, 0x01, 0x02, 0x03, 0x00, 0x12, 0x0c, 0x0d})                   // stop rule on, stale reports
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		total, shards := 1+int(data[0])%48, 1+int(data[1])%8
		req := Request{Workload: "model"}
		if data[1]&0x80 != 0 {
			req.Epsilon = 0.2
		}
		m := &coordModel{t: t, total: total, strict: req.Epsilon == 0,
			pending: PlanShards(total, shards), held: map[string]ShardRange{},
			folded: map[int]bool{}, attempts: map[int]int{}, reclaims: map[int]int{}}
		m.c = newCoordinator("model-key", req, total, 7, true, shards, m.onProgress, nil, nil)
		for _, b := range data[2:] {
			m.step(int(b&0x0f), int(b>>4))
		}
		// Drain: every step settles a lease or takes one, so a campaign that
		// is neither finished nor able to do either is stuck.
		for steps := 0; !m.finished(); steps++ {
			if steps > 4*total+64 {
				t.Fatalf("no termination after %d honest steps", steps)
			}
			if len(m.held) == 0 && !m.lease() {
				t.Fatal("stuck: nothing held, nothing leasable, not finished")
			}
			m.complete(m.pick(0), 1<<20)
		}
		m.verdict()
	})
}

// coordModel is the reference model beside the coordinator under test.
type coordModel struct {
	t      *testing.T
	c      *Coordinator
	total  int
	strict bool // stop rule off: the model predicts everything

	pending  []ShardRange
	held     map[string]ShardRange
	settled  []string // lease ids already completed, failed or reclaimed
	folded   map[int]bool
	attempts map[int]int
	reclaims map[int]int
	poisoned bool
}

// modelOutcome is the deterministic experiment the model reports for an
// index: its node names the index, every third one fails.
func modelOutcome(idx int) ExperimentOutcome {
	eo := ExperimentOutcome{Node: strconv.Itoa(idx), Unit: "u", Outcome: noEffect}
	if idx%3 == 0 {
		eo.Outcome = "failure"
	}
	return eo
}

func (m *coordModel) onProgress(tl progressTally, total int) {
	if total != m.total || tl.Failures < 0 || tl.Failures > tl.Done || tl.Done > total {
		m.t.Fatalf("merged tally %+v outside campaign of %d", tl, m.total)
	}
}

func (m *coordModel) finished() bool {
	select {
	case <-m.c.finished:
		return true
	default:
		return false
	}
}

// stopped reads the one piece of coordinator state the model does not
// predict: whether the epsilon rule fired.
func (m *coordModel) stopped() bool {
	m.c.mu.Lock()
	defer m.c.mu.Unlock()
	return m.c.stopped
}

// pick chooses the k-th held lease in id order, "" when none is held.
func (m *coordModel) pick(k int) string {
	ids := make([]string, 0, len(m.held))
	for id := range m.held {
		ids = append(ids, id)
	}
	if len(ids) == 0 {
		return ""
	}
	sort.Strings(ids)
	return ids[k%len(ids)]
}

func (m *coordModel) lease() bool {
	l, ok := m.c.Lease("w")
	if !m.strict {
		if ok {
			m.held[l.Lease] = l.Range
		}
		return ok
	}
	if want := len(m.pending) > 0 && !m.poisoned; ok != want {
		m.t.Fatalf("Lease ok=%v with %d ranges pending (poisoned %v)", ok, len(m.pending), m.poisoned)
	}
	if ok {
		if l.Range != m.pending[0] {
			m.t.Fatalf("leased %+v, want the head of the queue %+v", l.Range, m.pending[0])
		}
		m.pending = m.pending[1:]
		m.held[l.Lease] = l.Range
	}
	return ok
}

// release takes a lease out of the model's hands.
func (m *coordModel) release(id string) ShardRange {
	rng := m.held[id]
	delete(m.held, id)
	m.settled = append(m.settled, id)
	return rng
}

// strike charges a released shard and requeues it, or poisons the
// campaign at the bound — unless the campaign is already over.
func (m *coordModel) strike(rng ShardRange, counts map[int]int, bound int) {
	if m.poisoned || m.stopped() {
		return
	}
	counts[rng.Index]++
	if counts[rng.Index] >= bound {
		m.poison()
		return
	}
	m.pending = append(m.pending, rng)
}

func (m *coordModel) poison() {
	m.poisoned = true
	m.pending = nil
	for id := range m.held {
		m.release(id)
	}
}

// modelResult builds the honest output for the first n indices of a range.
func modelResult(rng ShardRange, n int) ShardOutput {
	out := ShardOutput{GoldenCycles: 7, Checkpointed: true}
	for idx := rng.Start; idx < rng.Start+n; idx++ {
		out.Indices = append(out.Indices, idx)
		out.Experiments = append(out.Experiments, modelOutcome(idx))
	}
	return out
}

// complete reports the first n experiments (at most the range) of a held
// lease honestly.
func (m *coordModel) complete(id string, n int) {
	rng, ok := m.held[id]
	if !ok {
		return
	}
	size := rng.End - rng.Start
	n = min(n, size)
	wasStopped := m.stopped()
	if err := m.c.Complete(ShardResult{Lease: id, Output: modelResult(rng, n)}); err != nil {
		m.t.Fatalf("honest result for %+v refused: %v", rng, err)
	}
	m.release(id)
	if n < size && !wasStopped {
		m.strike(rng, m.attempts, maxShardAttempts) // incomplete: requeued whole
		return
	}
	for idx := rng.Start; idx < rng.Start+n; idx++ {
		if m.folded[idx] {
			m.t.Fatalf("index %d folded twice", idx)
		}
		m.folded[idx] = true
	}
}

// refused reports a malformed result, which must leave the lease held.
func (m *coordModel) refused(id string, mangle func(rng ShardRange, out *ShardOutput)) {
	rng, ok := m.held[id]
	if !ok {
		return
	}
	out := modelResult(rng, rng.End-rng.Start)
	mangle(rng, &out)
	err := m.c.Complete(ShardResult{Lease: id, Output: out})
	if err == nil || errors.Is(err, ErrNoLease) {
		m.t.Fatalf("malformed result for %+v answered %v", rng, err)
	}
}

func (m *coordModel) step(op, k int) {
	id := m.pick(k)
	switch op {
	case 0, 1:
		m.lease()
	case 2: // progress, in and out of range
		for _, r := range [][2]int{{k, k / 2}, {-k, 1 << 20}, {1 << 20, -3}} {
			if rng, ok := m.held[id]; ok {
				cancel := m.c.Progress(id, r[0], r[1])
				if m.strict && cancel {
					m.t.Fatalf("progress on live lease %s of %+v answered cancel", id, rng)
				}
			}
		}
		m.c.mu.Lock()
		for _, l := range m.c.leases {
			if l.tally.Failures < 0 || l.tally.Failures > l.tally.Done || l.tally.Done > l.rng.End-l.rng.Start {
				m.t.Fatalf("lease %s tally %+v outside its range %+v", l.id, l.tally, l.rng)
			}
		}
		m.c.mu.Unlock()
	case 3:
		m.complete(id, 1<<20)
	case 4:
		m.complete(id, k)
	case 5: // more indices than experiments
		m.refused(id, func(_ ShardRange, out *ShardOutput) { out.Indices = append(out.Indices, out.Indices[0]) })
	case 6: // an index past the lease
		m.refused(id, func(rng ShardRange, out *ShardOutput) { out.Indices[len(out.Indices)-1] = rng.End })
	case 7: // a repeat standing in for an index, so the length still looks complete
		m.refused(id, func(rng ShardRange, out *ShardOutput) {
			if n := len(out.Indices); n > 1 {
				out.Indices[n-1] = rng.Start
			} else {
				out.Indices = append(out.Indices, rng.Start)
				out.Experiments = append(out.Experiments, modelOutcome(rng.Start))
			}
		})
	case 8: // an index before the lease
		m.refused(id, func(rng ShardRange, out *ShardOutput) { out.Indices[0] = rng.Start - 1 })
	case 9: // full-length result for a different golden run
		if rng, ok := m.held[id]; ok {
			out := modelResult(rng, rng.End-rng.Start)
			out.GoldenCycles++
			if err := m.c.Complete(ShardResult{Lease: id, Output: out}); err == nil || err != m.c.err {
				m.t.Fatalf("diverged result answered %v, want the error that failed the campaign (%v)", err, m.c.err)
			}
			m.poison()
		}
	case 10:
		if rng, ok := m.held[id]; ok {
			if err := m.c.Fail(id, "model"); err != nil {
				m.t.Fatalf("Fail on live lease: %v", err)
			}
			m.release(id)
			m.strike(rng, m.attempts, maxShardAttempts)
		}
	case 11: // every outstanding lease expires, in shard order
		m.c.Reclaim(0, time.Now().Add(time.Hour))
		ids := make([]string, 0, len(m.held))
		for id := range m.held {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return m.held[ids[i]].Index < m.held[ids[j]].Index })
		for _, id := range ids {
			if _, ok := m.held[id]; ok { // not already dropped by a poisoning
				m.strike(m.release(id), m.reclaims, maxShardReclaims)
			}
		}
	default: // reports under a lease that is gone
		if len(m.settled) == 0 {
			return
		}
		gone := m.settled[k%len(m.settled)]
		if !m.c.Progress(gone, 1, 0) {
			m.t.Fatalf("progress on settled lease %s did not answer cancel", gone)
		}
		if err := m.c.Complete(ShardResult{Lease: gone}); !errors.Is(err, ErrNoLease) {
			m.t.Fatalf("complete on settled lease %s: %v, want ErrNoLease", gone, err)
		}
		if err := m.c.Fail(gone, "late"); !errors.Is(err, ErrNoLease) {
			m.t.Fatalf("fail on settled lease %s: %v, want ErrNoLease", gone, err)
		}
	}
}

// verdict compares the finished campaign with the model.
func (m *coordModel) verdict() {
	out, err := m.c.outcome, m.c.err
	if (err != nil) != m.poisoned {
		m.t.Fatalf("campaign error %v, model poisoned=%v", err, m.poisoned)
	}
	if err != nil {
		return
	}
	if m.strict && len(out.Experiments) != m.total {
		m.t.Fatalf("merged %d of %d experiments with the stop rule off", len(out.Experiments), m.total)
	}
	if len(out.Experiments) != len(m.folded) || out.Injections != len(m.folded) {
		m.t.Fatalf("outcome holds %d experiments (injections %d), model folded %d",
			len(out.Experiments), out.Injections, len(m.folded))
	}
	prev, failures := -1, 0
	for _, eo := range out.Experiments {
		idx, _ := strconv.Atoi(eo.Node)
		if idx <= prev || !m.folded[idx] || eo != modelOutcome(idx) {
			m.t.Fatalf("outcome experiment %+v after index %d: repeated, out of order or never folded", eo, prev)
		}
		prev = idx
		if eo.Outcome != noEffect {
			failures++
		}
	}
	if out.Failures != failures {
		m.t.Fatalf("outcome counts %d failures, its experiments %d", out.Failures, failures)
	}
}
