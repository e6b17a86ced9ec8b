package rtl

import "fmt"

// This file extends the kernel beyond the paper's permanent-fault scope
// with the mechanism its §5 declares future work: transient single-event
// upsets.

// FlipBit inverts the present value of a node once (a single-event upset).
// In a pipeline register the flip naturally lasts until the register is
// rewritten — one cycle for flow-through state, indefinitely for
// quasi-static state — exactly the behavior of a real SEU.
func (k *Kernel) FlipBit(n Node) error { return k.flip(n, false) }

// FlipCarried inverts a node as an upset that struck at an earlier cycle
// boundary and was carried over at least one clock edge since reads now: in
// a clocked signal, in the pending slot as well as the committed one — the
// edge commits the whole pending slab, so from the first edge on the two
// hold the same word, and an edge that finds the register unscheduled takes
// the pending one. An array word has one slot and flips as under FlipBit.
func (k *Kernel) FlipCarried(n Node) error { return k.flip(n, true) }

func (k *Kernel) flip(n Node, carried bool) error {
	bit := uint64(1) << n.Bit
	if s := k.findSignal(n.Name); s != nil {
		if n.Bit >= s.width || n.Word != 0 {
			return fmt.Errorf("rtl: flip %v out of range", n)
		}
		*s.curp ^= bit
		if carried && s.reg {
			*s.nxtp ^= bit
		}
		return nil
	}
	if a := k.findArray(n.Name); a != nil {
		if n.Bit >= a.width || n.Word < 0 || n.Word >= len(a.data) {
			return fmt.Errorf("rtl: flip %v out of range", n)
		}
		a.data[n.Word] ^= bit
		a.mark(n.Word)
		return nil
	}
	return fmt.Errorf("rtl: unknown node %v", n)
}
