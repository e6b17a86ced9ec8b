package fault

import (
	"math/bits"
	"sync"
)

// futures is a runner's table of known futures, kept as long as the runner,
// beside its ladder, its read log and its verdict table. A transient
// universe's instant never recurs, but the state it parks in does: on a
// rung's own cycle, unarmed, with no mismatch and the comparator on the
// rung's write index, a universe golden but for a few state words has a
// future that is a function of the rung and of those words (the healed
// lemma of DESIGN.md §10: committed slabs, write index, hence memory, at one
// cycle). So resolve keys it by (rung, the words it differs in, in Diff
// order, each with its mask), compared in full. A key an earlier call
// stored is a known future: the universe is finalized with that call's
// outcome, run length and absolute event cycle (proof="future"). A key not
// there is recorded on the engine, and whatever ends the universe writes its
// result under every key it recorded (store).
//
// Only entries of an earlier call are taken, as known verdicts are, so a
// single campaign's work on a fresh runner is what it was without the
// table, at any worker count: two universes of one call that meet in one
// state are stepped both. The table is a hash of buckets of futureWays
// slots of 72 bytes: 4,096 slots on the first store, doubled whenever a key
// finds its bucket full, up to futureSlots — 4.5 MiB, under the ladder's and
// the read log's 6 MiB each. Below that bound no entry is ever dropped, so
// what the table holds after a call is the same whatever order its
// universes ended in; at the bound a key that finds its bucket full takes
// the slot of the earliest call's entry. Scheduling only: a known future
// changes no result, only the work counters. The from-reset reference never
// reaches resolve's park and keeps no table; a lane without a call (RunOne)
// neither reads nor writes it.
type futures struct {
	mu    sync.Mutex
	slots []future // buckets of futureWays; nil until the first store
}

// The table's bucket width, first size and bound, in slots. A cold
// campaign stores a few hundred keys: the first size spares it zeroing and
// faulting in 4.5 MiB, which read 5 % of engine_transient's set-up.
// Constants, not options.
const (
	futureWays  = 8
	futureFirst = 1 << 12
	futureSlots = 1 << 16
)

// futureKeep is how many keys one universe records before it ends; past it,
// it records none.
const futureKeep = 32

// futureKey is the state words a parked universe differs from its rung in,
// in Diff order; the words past its count are zero (a differing word has a
// nonzero mask).
type futureKey struct {
	mask [diffMax]uint64
	word [diffMax]int32
}

// futureRef is a key a universe recorded on its rung.
type futureRef struct {
	key  futureKey
	rung int32
}

// future is one slot: a key and the ending a universe parked there came to.
// event is the absolute cycle of the failure that ended it, plus one (0: no
// latency — a no-effect or a hang); cycles and event fit 32 bits since every
// run ends inside the budget, at most 3 × the 200M-cycle golden limit +
// 10,000.
type future struct {
	key     futureKey
	rung    int32
	cycles  uint32
	event   uint32
	outcome uint8
	call    uint64 // the call that stored it; 0 for an empty slot
}

// bucket returns the bucket in slots of key on rung: the top bits of its
// hash, so that the entries of a bucket of a table twice as large come from
// one bucket of the smaller one.
func bucket(slots []future, key *futureKey, rung int32) []future {
	h := uint64(uint32(rung))
	for i, w := range key.word {
		h = splitmix64(h ^ uint64(uint32(w))<<32 ^ key.mask[i])
	}
	b := int(h>>(64-bits.TrailingZeros(uint(len(slots)/futureWays)))) * futureWays
	return slots[b : b+futureWays]
}

// known looks up the state of l's universe on rung i, the n words of
// eng.diff, and says whether an earlier call's universe passed through it; if
// one did, res takes its ending. If none did, eng records the key for store.
func (r *Runner) known(eng *engine, l *lane, i, n int, res *Result) bool {
	if l.call == 0 {
		return false
	}
	ref := futureRef{rung: int32(i)}
	for j, w := range eng.diff[:n] {
		ref.key.word[j], ref.key.mask[j] = w.Index, w.Mask
	}
	t := &r.futures
	t.mu.Lock()
	if t.slots != nil {
		for _, f := range bucket(t.slots, &ref.key, ref.rung) {
			if f.call != 0 && f.call < l.call && f.rung == ref.rung && f.key == ref.key {
				res.Outcome, res.Cycles, res.Latency = Outcome(f.outcome), uint64(f.cycles), -1
				if f.event != 0 {
					res.Latency = int64(f.event-1) - int64(l.injectAt)
				}
				t.mu.Unlock()
				return true
			}
		}
	}
	t.mu.Unlock()
	if eng.nkeys < futureKeep {
		eng.keys[eng.nkeys] = ref
		eng.nkeys++
	}
	return false
}

// store writes l's ending, res, under every key its universe recorded on
// eng.
func (r *Runner) store(eng *engine, l *lane, res *Result) {
	if eng.nkeys == 0 {
		return
	}
	f := future{cycles: uint32(res.Cycles), outcome: uint8(res.Outcome), call: l.call}
	if res.Latency >= 0 {
		f.event = uint32(uint64(res.Latency)+l.injectAt) + 1
	}
	t := &r.futures
	t.mu.Lock()
	if t.slots == nil {
		t.slots = make([]future, futureFirst)
	}
	for _, ref := range eng.keys[:eng.nkeys] {
		f.key, f.rung = ref.key, ref.rung
		t.put(&f)
	}
	t.mu.Unlock()
	eng.nkeys = 0
}

// put enters f in its bucket. An entry of its key keeps the earlier of the
// two calls, whose ending is the same and visible to more calls; a full
// bucket doubles the table, or at the bound gives f the slot of its
// earliest call's entry.
func (t *futures) put(f *future) {
	for {
		b := bucket(t.slots, &f.key, f.rung)
		free, oldest := -1, 0
		for i := range b {
			switch {
			case b[i].call == 0:
				if free < 0 {
					free = i
				}
			case b[i].rung == f.rung && b[i].key == f.key:
				b[i].call = min(b[i].call, f.call)
				return
			case b[i].call < b[oldest].call:
				oldest = i
			}
		}
		switch {
		case free >= 0:
			b[free] = *f
		case len(t.slots) < futureSlots:
			t.grow()
			continue
		default:
			b[oldest] = *f
		}
		return
	}
}

// grow doubles the table. A bucket's entries split between the two buckets
// it becomes, so none is dropped.
func (t *futures) grow() {
	old := t.slots
	t.slots = make([]future, 2*len(old))
	for i := range old {
		if f := &old[i]; f.call != 0 {
			b := bucket(t.slots, &f.key, f.rung)
			for j := range b {
				if b[j].call == 0 {
					b[j] = *f
					break
				}
			}
		}
	}
}
