package rtl

import (
	"fmt"
	"strconv"
)

// FaultModel enumerates the fault models: the paper's permanent models
// (stuck-at-0/1, open-line) plus the transient models of its declared
// future work (single-event upsets and single-event transients), whose
// outcome depends on the injection instant.
type FaultModel uint8

// Fault models. The first three are permanent (armed once, forced for
// the rest of the run); BitFlip and SETPulse are transient (applied at a
// sampled injection cycle, after which the design runs free).
const (
	StuckAt0 FaultModel = iota
	StuckAt1
	OpenLine // driver disconnected; the net retains its charge
	BitFlip  // SEU: invert the net's present value once, then run free
	SETPulse // SET: force the net's complement for a cycle window, then release
)

func (m FaultModel) String() string {
	switch m {
	case StuckAt0:
		return "stuck-at-0"
	case StuckAt1:
		return "stuck-at-1"
	case OpenLine:
		return "open-line"
	case BitFlip:
		return "bit-flip"
	case SETPulse:
		return "set-pulse"
	}
	return "fault?"
}

// Transient reports whether the model is a transient upset rather than a
// permanent forcing: its effect is tied to an injection cycle, and (for
// SETPulse) the forcing is released after the pulse window.
func (m FaultModel) Transient() bool { return m == BitFlip || m == SETPulse }

// FaultModels lists the paper's permanent models (the historical default
// of every campaign surface; transient models are opted into by name).
func FaultModels() []FaultModel { return []FaultModel{StuckAt0, StuckAt1, OpenLine} }

// TransientFaultModels lists the transient models.
func TransientFaultModels() []FaultModel { return []FaultModel{BitFlip, SETPulse} }

// AllFaultModels lists every supported model, permanent first, in
// canonical enumeration order.
func AllFaultModels() []FaultModel {
	return append(FaultModels(), TransientFaultModels()...)
}

// Node identifies one injectable bit: a bit of a signal, or a bit of one
// word of a memory array.
type Node struct {
	Name string // signal or array name
	Word int    // array word index (0 for signals)
	Bit  int
}

// String renders the node as name.bit, or name[word].bit for an array word
// past the first. Word 0 of an array prints like a signal; outcome bytes
// and content-addressed results carry this text, so the format is frozen
// (TestNodeStringFormat). Every experiment of every campaign renders one, so
// it is built in a stack buffer — the string is its only allocation —
// instead of through fmt.
func (n Node) String() string {
	var buf [64]byte // longer names spill to the heap
	b := append(buf[:0], n.Name...)
	if n.Word > 0 {
		b = append(b, '[')
		b = strconv.AppendInt(b, int64(n.Word), 10)
		b = append(b, ']')
	}
	b = append(b, '.')
	b = strconv.AppendInt(b, int64(n.Bit), 10)
	return string(b)
}

// Fault is a fault model applied at a node.
type Fault struct {
	Node  Node
	Model FaultModel
}

func (f Fault) String() string { return fmt.Sprintf("%v@%v", f.Model, f.Node) }

// Nodes enumerates every injectable bit under the given name prefix.
// Signals contribute width bits each; arrays contribute width bits per
// word. This enumeration is the paper's "all available points" of a unit.
func (k *Kernel) Nodes(prefix string) []Node {
	var out []Node
	for _, s := range k.signals {
		if !hasPrefix(s.name, prefix) {
			continue
		}
		for b := 0; b < s.width; b++ {
			out = append(out, Node{Name: s.name, Bit: b})
		}
	}
	for _, a := range k.arrays {
		if !hasPrefix(a.name, prefix) {
			continue
		}
		for w := 0; w < len(a.data); w++ {
			for b := 0; b < a.width; b++ {
				out = append(out, Node{Name: a.name, Word: w, Bit: b})
			}
		}
	}
	return out
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }

// Inject arms a fault at its node. Stuck-at faults force the bit; an
// open-line fault freezes the bit at its present value; a SET pulse
// forces the complement of the bit's present value (disarm it with
// ClearFaults once the pulse window elapses). A BitFlip is not a forcing
// at all: Inject performs the one-shot state inversion (FlipBit) and
// arms nothing, so there is nothing to clear afterwards. Injecting on an
// unknown node returns an error.
func (k *Kernel) Inject(f Fault) error {
	if f.Model == BitFlip {
		return k.FlipBit(f.Node)
	}
	return k.inject(f, 0, false)
}

// InjectForced arms f like Inject, except that the charge-sampling
// models (OpenLine, SETPulse) derive their frozen value from sampled —
// the raw value the net carried at the experiment's injection instant —
// instead of the net's present value. The batched campaign engine uses
// it to arm a fault on a core forked at a later cycle while reproducing
// exactly the forcing a scalar run armed at the original instant would
// carry. Stuck-at models ignore sampled; BitFlip is not a forcing and is
// rejected.
func (k *Kernel) InjectForced(f Fault, sampled uint64) error {
	if f.Model == BitFlip {
		return fmt.Errorf("rtl: InjectForced cannot arm %v (state mutation, not a forcing)", f)
	}
	return k.inject(f, sampled, true)
}

func (k *Kernel) inject(f Fault, sampled uint64, haveSample bool) error {
	bit := uint64(1) << f.Node.Bit
	if s := k.findSignal(f.Node.Name); s != nil {
		if f.Node.Bit >= s.width || f.Node.Word != 0 {
			return fmt.Errorf("rtl: fault %v out of range (width %d)", f, s.width)
		}
		if s.fMask == s.tags() {
			k.fSigs = append(k.fSigs, s)
		}
		cur := *s.curp
		if haveSample {
			cur = sampled
		}
		s.fMask |= bit
		switch f.Model {
		case StuckAt1:
			s.fVal |= bit
		case StuckAt0:
			s.fVal &^= bit
		case OpenLine:
			s.fVal = s.fVal&^bit | cur&bit
		case SETPulse:
			s.fVal = s.fVal&^bit | ^cur&bit
		}
		s.updateSlow()
		k.faults = append(k.faults, f)
		k.dirty = true
		return nil
	}
	if a := k.findArray(f.Node.Name); a != nil {
		if f.Node.Bit >= a.width || f.Node.Word < 0 || f.Node.Word >= len(a.data) {
			return fmt.Errorf("rtl: fault %v out of range", f)
		}
		if a.fWord >= 0 && a.fWord != f.Node.Word {
			return fmt.Errorf("rtl: array %s already faulted at word %d", a.name, a.fWord)
		}
		if a.fWord < 0 {
			k.fArrs = append(k.fArrs, a)
		}
		cur := a.data[f.Node.Word]
		if haveSample {
			cur = sampled
		}
		a.fWord = f.Node.Word
		a.updateSlow()
		a.fMask |= bit
		switch f.Model {
		case StuckAt1:
			a.fVal |= bit
		case StuckAt0:
			a.fVal &^= bit
		case OpenLine:
			a.fVal = a.fVal&^bit | cur&bit
		case SETPulse:
			a.fVal = a.fVal&^bit | ^cur&bit
		}
		k.faults = append(k.faults, f)
		k.dirty = true
		return nil
	}
	return fmt.Errorf("rtl: unknown node %v", f.Node)
}

// Faults returns the armed faults; the slice is reused after ClearFaults.
func (k *Kernel) Faults() []Fault { return k.faults }

// Forcing returns the forcing armed on the signal: the mask of forced bits
// and the values they are held at (both zero on a clean net).
func (s *Signal) Forcing() (mask, val uint64) { return s.fMask &^ s.tags(), s.fVal }

// SoleForcing names everything that is armed on the design, for arguments
// that hold only under a known forcing: the one signal carrying the one
// armed fault, or nil when nothing is armed. ok is false when that does not
// describe the design — two or more faults, a faulted array word.
func (k *Kernel) SoleForcing() (s *Signal, ok bool) {
	switch {
	case len(k.faults) > 1 || len(k.fArrs) > 0:
		return nil, false
	case len(k.faults) == 1:
		return k.fSigs[0], true
	}
	return nil, true
}

// ClearFaults removes all armed faults. The kernel dirty flag makes
// clearing a clean design — the common case on the campaign engine's
// per-experiment restore path — a single check, and only the (few) nodes
// that carry a fault are visited otherwise.
func (k *Kernel) ClearFaults() {
	if !k.dirty {
		return
	}
	for _, s := range k.fSigs {
		s.fMask, s.fVal = s.tags(), 0 // a witness's edge tags stay masked
		s.updateSlow()
	}
	for _, a := range k.fArrs {
		a.fWord, a.fMask, a.fVal = -1, 0, 0
		a.updateSlow()
	}
	// Keep the capacity: a pooled kernel arms one fault per experiment.
	k.fSigs, k.fArrs, k.faults = k.fSigs[:0], k.fArrs[:0], k.faults[:0]
	k.dirty = false
}
