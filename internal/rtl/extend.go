package rtl

import "fmt"

// This file extends the kernel beyond the paper's permanent-fault scope
// with the mechanism its §5 declares future work: transient single-event
// upsets.

// FlipBit inverts the present value of a node once (a single-event upset).
// In a pipeline register the flip naturally lasts until the register is
// rewritten — one cycle for flow-through state, indefinitely for
// quasi-static state — exactly the behavior of a real SEU.
func (k *Kernel) FlipBit(n Node) error {
	bit := uint64(1) << n.Bit
	if s := k.findSignal(n.Name); s != nil {
		if n.Bit >= s.width || n.Word != 0 {
			return fmt.Errorf("rtl: flip %v out of range", n)
		}
		*s.curp ^= bit
		return nil
	}
	if a := k.findArray(n.Name); a != nil {
		if n.Bit >= a.width || n.Word < 0 || n.Word >= len(a.data) {
			return fmt.Errorf("rtl: flip %v out of range", n)
		}
		a.data[n.Word] ^= bit
		return nil
	}
	return fmt.Errorf("rtl: unknown node %v", n)
}
