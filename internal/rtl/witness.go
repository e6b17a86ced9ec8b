package rtl

import "fmt"

// This file implements read witnessing, the kernel seam of the batched
// (bit-parallel) fault-simulation engine. A witness observes, during a
// clean golden pass, every value consumers actually sample from a set of
// watched nets. Because fault forcing in this kernel is strictly
// read-side (Inject never mutates raw slab state), a faulted universe
// whose raw state equals the golden run's can only diverge at a cycle
// where some consumer reads the faulted net and the forced bit differs
// from the clean bit. The per-net observation accumulators make that
// activation predicate a pair of bitwise ops across all 64 bits of a net
// at once — the PPSFP trick transplanted from gate-level patterns to
// word-level fault universes (see DESIGN.md §10).

// WitnessNet names one watched net: a signal, or a single word of a
// memory array (Word is 0 for signals).
type WitnessNet struct {
	Name string
	Word int
}

// WitnessAcc accumulates the read observations of one watched net since
// it was last reset: Ones collects the bits that were sampled as 1,
// Zeros the bits sampled as 0 (within the net's width; higher Zeros bits
// are junk). A bit appearing in neither was never consumed; a bit
// appearing in both was consumed with each polarity at least once.
//
// WriteFirst and Untouched are the write side, which is what makes a state
// upset witnessable at all: they say what became of the word a net held
// before, whatever that was. WriteFirst: it was replaced while no read had
// been recorded since the last reset, so it went unseen — an array word by
// MemArray.Write, which stores the whole word and is the only way one
// changes; a register whose clock edges are watched (WatchEdges) by the edge
// committing a scheduled value (SetNext) in a cycle nothing sampled it. An
// edge that carried the word on — a raw copy scheduled it again: Hold,
// Group.Hold — records nothing. Untouched, such registers only: nothing
// scheduled the register this cycle, so the edge committed whatever the
// pending slot still held from the cycle before and dropped the committed
// word, read or not.
type WitnessAcc struct {
	Ones       uint64
	Zeros      uint64
	WriteFirst bool
	Untouched  bool
}

// Witness is an armed set of observation accumulators over watched nets.
// It is arm-once, drain-per-cycle: the caller drains between kernel
// cycles, then calls Stop to disarm. Witnessing composes with fault
// forcing (the recorded value is the value Get returns, forcing
// applied), but its intended use is on a clean design, where the
// recorded values are the golden ones.
type Witness struct {
	k   *Kernel    // nil once stopped
	obs []observer // one per net, indexed like the nets passed to StartWitness
	raw []*uint64  // each net's raw slab word, for Sample
	// head chains the nets observed since the last drain, most recent first
	// touch first: a drain visits the nets the design touched and no other.
	// Links are 1 + an index into obs, chainEnd past the last, so that
	// touching a net stores no pointer.
	head  int32
	sigs  []*Signal   // armed signal observers (parallel to obs; nil entries for array nets)
	arrs  []*MemArray // armed array words' arrays (parallel to obs; nil entries for signals)
	words []int       // and their words
	edges []int32     // the nets whose clock edges are watched (WatchEdges)
}

// A register whose clock edges are watched carries a tag above its width in
// each slab between drains: tagCarry on the committed word, tagStay on the
// pending one. Hold and Group.Hold copy the committed word raw, tag and all;
// SetNext and Set mask theirs off; the edge commits the pending word. So the
// tag on the committed word after the edge says what the cycle did with the
// word committed before it: tagCarry, a raw copy carried it over; tagStay,
// nothing scheduled the register and the edge took the pending slot as it
// stood; neither, a scheduled value replaced it. The kernel's own paths —
// Get, SetNext, Hold, Group.Hold, Cycle — do not know: consumers never see a
// tag because the forcing mask getSlow applies covers both (zero forced
// values, on a net that is on the slow path for being witnessed anyway), and
// Sample and Next mask by width.
const (
	tagCarry = uint64(1) << 63
	tagStay  = uint64(1) << 62
	edgeTags = tagCarry | tagStay
	// maxEdgeWidth is the widest register with room for both tags.
	maxEdgeWidth = 62
)

// observer is one watched net's accumulator and its link in the witness's
// touched chain: next is 0 while the accumulator is empty.
type observer struct {
	WitnessAcc
	w    *Witness
	net  int32
	next int32
}

const chainEnd = -1

// touch chains an empty accumulator's net for the next drain. It must stay
// cheap enough for MemArray.Read and Write to inline.
func (o *observer) touch() {
	if o.next == 0 {
		o.next, o.w.head = o.w.head, o.net+1
	}
}

// WitnessEvent is what one net recorded between two drains. Net indexes
// the nets passed to StartWitness.
type WitnessEvent struct {
	Net int32
	Acc WitnessAcc
}

// StartWitness arms read observation on the given nets and returns the
// witness handle. The nets must name distinct existing signals or array
// words; on error nothing is armed. Only one witness may be armed per
// net at a time (arming an already-witnessed net is an error). The
// kernel's hot path pays for witnessing only on the watched nets
// themselves, exactly like fault forcing.
func (k *Kernel) StartWitness(nets []WitnessNet) (*Witness, error) {
	w := &Witness{k: k, obs: make([]observer, len(nets)), raw: make([]*uint64, len(nets)), sigs: make([]*Signal, len(nets)),
		arrs: make([]*MemArray, len(nets)), words: make([]int, len(nets))}
	w.head = chainEnd
	seen := make(map[WitnessNet]bool, len(nets))
	for i, n := range nets {
		if seen[n] {
			return nil, fmt.Errorf("rtl: witness net %s[%d] repeated", n.Name, n.Word)
		}
		seen[n] = true
		if s := k.findSignal(n.Name); s != nil {
			if n.Word != 0 {
				return nil, fmt.Errorf("rtl: witness net %s[%d]: signals have no words", n.Name, n.Word)
			}
			if s.obs != nil {
				return nil, fmt.Errorf("rtl: witness net %s already witnessed", n.Name)
			}
			w.sigs[i], w.raw[i] = s, s.curp
			continue
		}
		a := k.findArray(n.Name)
		if a == nil {
			return nil, fmt.Errorf("rtl: unknown witness net %s", n.Name)
		}
		if n.Word < 0 || n.Word >= len(a.data) {
			return nil, fmt.Errorf("rtl: witness net %s[%d] out of range", n.Name, n.Word)
		}
		if a.obs != nil && a.obs[n.Word] != nil {
			return nil, fmt.Errorf("rtl: witness net %s[%d] already witnessed", n.Name, n.Word)
		}
		w.arrs[i], w.words[i], w.raw[i] = a, n.Word, &a.data[n.Word]
	}
	// Validation passed; arm everything.
	for i := range w.obs {
		o := &w.obs[i]
		o.w, o.net = w, int32(i)
		if s := w.sigs[i]; s != nil {
			s.obs = o
			s.updateSlow()
			continue
		}
		a := w.arrs[i]
		if a.obs == nil {
			a.obs = make([]*observer, len(a.data))
		}
		a.obs[w.words[i]] = o
		a.armed++
		a.updateSlow()
	}
	k.witnesses++
	return w, nil
}

// EdgesWatchable reports whether n names a bit of a clocked signal narrow
// enough for WatchEdges.
func (k *Kernel) EdgesWatchable(n Node) bool {
	s := k.findSignal(n.Name)
	return s != nil && s.edgesWatchable()
}

func (s *Signal) edgesWatchable() bool { return s.reg && s.width <= maxEdgeWidth }

// WatchEdges adds the write side to watched net i, a clocked signal of at
// most 62 bits: from the next cycle on, each Drain also records what the
// clock edge did with the word the register held (WitnessAcc.WriteFirst,
// Untouched). It needs one Drain per cycle, and until Stop the register's
// raw slab words carry the tags: take no Snapshot of the kernel, and compare
// no state, in between.
func (w *Witness) WatchEdges(i int) error {
	s := w.sigs[i]
	if s == nil || !s.edgesWatchable() {
		return fmt.Errorf("rtl: witness net %d: only a clocked signal of at most %d bits has watchable edges", i, maxEdgeWidth)
	}
	if !s.tagged { // one witness per net: tagged by this one
		w.edges = append(w.edges, int32(i))
		s.tagged = true
		s.fMask |= edgeTags
		s.tag()
	}
	return nil
}

// tags is the part of fMask that hides a tagged signal's edge tags and
// forces nothing.
func (s *Signal) tags() uint64 {
	if s.tagged {
		return edgeTags
	}
	return 0
}

// tag marks both slab words of a register for the coming cycle.
func (s *Signal) tag() {
	*s.curp = *s.curp&s.mask | tagCarry
	*s.nxtp = *s.nxtp&s.mask | tagStay
}

// Drain appends to dst what each net recorded since the last drain — one
// event per net the design touched, untouched nets cost nothing — and
// resets those accumulators.
func (w *Witness) Drain(dst []WitnessEvent) []WitnessEvent {
	for _, i := range w.edges {
		s, o := w.sigs[i], &w.obs[i]
		switch cur := *s.curp; {
		case cur&tagCarry != 0:
		case cur&tagStay != 0:
			o.touch()
			o.Untouched = true
		case o.Ones|o.Zeros == 0:
			o.touch()
			o.WriteFirst = true
		}
		s.tag()
	}
	for h := w.head; h != chainEnd; {
		o := &w.obs[h-1]
		dst = append(dst, WitnessEvent{Net: o.net, Acc: o.WitnessAcc})
		h, o.next, o.WitnessAcc = o.next, 0, WitnessAcc{}
	}
	w.head = chainEnd
	return dst
}

// Sample returns the present raw (committed, unforced) value of watched
// net i without recording an observation — the charge-sampling models'
// view of the net at an injection instant.
func (w *Witness) Sample(i int) uint64 {
	v := *w.raw[i]
	if s := w.sigs[i]; s != nil {
		v &= s.mask // edge tags sit above the width
	}
	return v
}

// Stop disarms every observer of this witness, and no other's: witnesses
// over different words share an array's observer list, which goes with the
// last of them. The witness must be stopped before its kernel is reused for
// non-witnessed simulation (pooled campaign cores), and before arming a new
// witness over the same nets. Stopping a stopped witness does nothing.
func (w *Witness) Stop() {
	if w.k == nil {
		return
	}
	w.k.witnesses--
	w.k = nil
	for _, i := range w.edges {
		s := w.sigs[i]
		s.fMask, s.tagged = s.fMask&^edgeTags, false
		*s.curp &= s.mask
		*s.nxtp &= s.mask
	}
	for i, s := range w.sigs {
		if s != nil {
			s.obs = nil
			s.updateSlow()
		} else if a := w.arrs[i]; a != nil {
			a.obs[w.words[i]] = nil
			if a.armed--; a.armed == 0 {
				a.obs = nil
				a.updateSlow()
			}
		}
	}
	w.sigs, w.arrs, w.words, w.edges = nil, nil, nil, nil
}

// IsArrayWord reports whether n names a bit of a memory-array word rather
// than of a signal (or of nothing).
func (k *Kernel) IsArrayWord(n Node) bool { return k.findArray(n.Name) != nil }

// NodeValid reports whether n names an injectable bit of the design
// (Inject on it would not fail with a range or unknown-node error).
func (k *Kernel) NodeValid(n Node) bool {
	if s := k.findSignal(n.Name); s != nil {
		return n.Word == 0 && n.Bit >= 0 && n.Bit < s.width
	}
	if a := k.findArray(n.Name); a != nil {
		return n.Word >= 0 && n.Word < len(a.data) && n.Bit >= 0 && n.Bit < a.width
	}
	return false
}
