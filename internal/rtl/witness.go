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
// WriteFirst is the write side, recorded for array words only: the word
// was written while no read had been recorded since the last reset, so
// whatever it held before was overwritten unseen. An array word changes
// only through MemArray.Write (the whole word) and is consumed only
// through MemArray.Read, which is what makes a state upset in it
// witnessable at all; a signal has no such seam (Hold and the clock edge
// copy raw values without a Get) and never sets the flag.
type WitnessAcc struct {
	Ones       uint64
	Zeros      uint64
	WriteFirst bool
}

// Witness is an armed set of observation accumulators over watched nets.
// It is arm-once, drain-per-cycle: the caller reads (and resets) the
// accumulator slice between kernel cycles, then calls Stop to disarm.
// Witnessing composes with fault forcing (the recorded value is the
// value Get returns, forcing and bridges applied), but its intended use
// is on a clean design, where the recorded values are the golden ones.
type Witness struct {
	k    *Kernel
	acc  []WitnessAcc
	nets []WitnessNet
	sigs []*Signal   // armed signal observers (parallel to nets; nil entries for array nets)
	arrs []*MemArray // arrays with at least one armed word, for Stop
}

// StartWitness arms read observation on the given nets and returns the
// witness handle. The nets must name distinct existing signals or array
// words; on error nothing is armed. Only one witness may be armed per
// net at a time (arming an already-witnessed net is an error). The
// kernel's hot path pays for witnessing only on the watched nets
// themselves, exactly like fault forcing.
func (k *Kernel) StartWitness(nets []WitnessNet) (*Witness, error) {
	w := &Witness{k: k, acc: make([]WitnessAcc, len(nets)), nets: append([]WitnessNet(nil), nets...)}
	w.sigs = make([]*Signal, len(nets))
	type arrNet struct {
		a *MemArray
		i int // index into nets/acc
	}
	var arrNets []arrNet
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
			w.sigs[i] = s
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
		arrNets = append(arrNets, arrNet{a: a, i: i})
	}
	// Validation passed; arm everything.
	for i, s := range w.sigs {
		if s == nil {
			continue
		}
		s.obs = &w.acc[i]
		s.updateSlow()
	}
	for _, an := range arrNets {
		if an.a.obs == nil {
			an.a.obs = make([]*WitnessAcc, len(an.a.data))
			w.arrs = append(w.arrs, an.a)
		} else if !containsArr(w.arrs, an.a) {
			w.arrs = append(w.arrs, an.a)
		}
		an.a.obs[w.nets[an.i].Word] = &w.acc[an.i]
	}
	return w, nil
}

func containsArr(as []*MemArray, a *MemArray) bool {
	for _, x := range as {
		if x == a {
			return true
		}
	}
	return false
}

// Accs returns the live accumulator slice, indexed like the nets passed
// to StartWitness. Callers drain a cycle's observations by copying the
// entries out and zeroing them in place.
func (w *Witness) Accs() []WitnessAcc { return w.acc }

// Sample returns the present raw (committed, unforced) value of watched
// net i without recording an observation — the charge-sampling models'
// view of the net at an injection instant.
func (w *Witness) Sample(i int) uint64 {
	if s := w.sigs[i]; s != nil {
		return *s.curp
	}
	return w.k.findArray(w.nets[i].Name).data[w.nets[i].Word]
}

// Stop disarms every observer. The witness must be stopped before its
// kernel is reused for non-witnessed simulation (pooled campaign cores),
// and before arming a new witness over the same nets.
func (w *Witness) Stop() {
	for _, s := range w.sigs {
		if s != nil {
			s.obs = nil
			s.updateSlow()
		}
	}
	for _, a := range w.arrs {
		a.obs = nil
	}
	w.sigs, w.arrs = nil, nil
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
