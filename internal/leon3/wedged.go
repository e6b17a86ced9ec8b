package leon3

import (
	"math/bits"

	"repro/internal/iss"
	"repro/internal/rtl"
)

// Wedged proves that for the next horizon cycles the core commits nothing:
// EX never gets past its gate (executeComb's early returns before wMatch)
// and nothing is left in flight behind it. Such a core writes nothing
// off-core, retires nothing and reaches neither error mode nor the exit
// device; only the front end (fetch PC, DE/RA/EX input registers,
// ctl.redirt, the instruction cache) keeps moving. The proof holds while
// the set of armed forcings stays what it is now — a caller with a pulse
// still to release must not ask — and false only means "not proven".
// DESIGN.md §10 has the inductions; TestWedgedHoldsToHorizon steps every
// true answer to its horizon.
//
// The back end must be drained, and the gate held shut by one of four
// lemmas, each valid under the forcings it names and no other:
//
//   - halt: ctl.halt reads 1, forced there or not. Only EX past the gate
//     writes it, and only to 1.
//   - valid chain: the forcing holds de, ra or ex.valid at 0 and every
//     valid downstream of it reads 0, so ex.valid never reads 1 again.
//   - PC bit: the forcing holds bit b of fe, de, ra or ex.pc at v,
//     ctl.exppc bit b is ¬v, and every stage PC downstream of the forced
//     one carries v at bit b already. Stage PCs are only loaded from the
//     upstream stage's forced view or held, and exppc is written only past
//     the gate, so ex.pc never equals exppc.
//   - fetch distance: nothing is forced, or fe.redirpc, ctl.redirt (to 1)
//     or fe.redir (to 0) is; see fetchFar.
func (c *Core) Wedged(horizon uint64) bool {
	f, ok := c.K.SoleForcing()
	if !ok || !c.drained() {
		return false
	}
	if f == nil {
		return c.arch.halt.GetBool() || c.fetchFar(horizon)
	}
	mask, val := f.Forcing()
	b := bits.TrailingZeros64(mask)
	v := val >> b & 1
	switch f {
	case c.arch.halt:
		return v == 1
	case c.wRedirPC, c.arch.redirT:
		return c.fetchFar(horizon)
	case c.wRedir:
		return v == 0 && c.fetchFar(horizon)
	}
	valids := [...]*rtl.Signal{c.de.valid, c.ra.valid, c.ex.valid}
	for i, s := range valids {
		if s != f {
			continue
		}
		for _, down := range valids[i:] {
			if down.GetBool() {
				return false
			}
		}
		return true
	}
	pcs := [...]*rtl.Signal{c.fe.pc, c.de.pc, c.ra.pc, c.ex.pc}
	for i, s := range pcs {
		if s != f {
			continue
		}
		// DE loads fe.pc with its low two bits cleared: a 1 forced there is
		// not what the downstream stages carry.
		if i == 0 && b < 2 && v == 1 || c.arch.expPC.Get()>>b&1 == v {
			return false
		}
		for _, down := range pcs[i:] {
			if down.Get()>>b&1 != v {
				return false
			}
		}
		return true
	}
	return false
}

// drained reports the back end empty and at the fixpoint a bubble leaves it
// in: every register that meBubble, memoryComb's bubble and writebackComb
// schedule behind an empty stage already reads the zero they schedule, no
// data-cache stall is raised, and the core is running outside error mode.
// While EX stays shut, ME, XC and WB then read and write nothing but those
// zeros: no bus access, no register-file or data-cache write, no trap.
func (c *Core) drained() bool {
	if c.status != iss.StatusRunning {
		return false
	}
	for _, s := range [...]*rtl.Signal{
		c.me.valid, c.me.isMem, c.me.wbEn, c.me.wb2En,
		c.xc.valid, c.xc.wbEn, c.xc.wb2En,
		c.wb.wbEn, c.wb.wb2En,
		c.arch.errm, c.wDcStall,
	} {
		if s.GetBool() {
			return false
		}
	}
	return true
}

// fetchFar is the fetch-distance lemma: ctl.redirt reads 1, so EX issues no
// redirect until it matches again and the fetch PC only holds or steps by
// 4; no valid stage PC equals ctl.exppc; and exppc is unaligned — fetched
// PCs never are — or more than horizon sequential fetches ahead of fe.pc.
// Valid under no forcing, or one on fe.redirpc (never consumed again),
// ctl.redirt or fe.redir.
func (c *Core) fetchFar(horizon uint64) bool {
	expPC := u32(c.arch.expPC)
	if !c.arch.redirT.GetBool() ||
		c.de.valid.GetBool() && u32(c.de.pc) == expPC ||
		c.ra.valid.GetBool() && u32(c.ra.pc) == expPC ||
		c.ex.valid.GetBool() && u32(c.ex.pc) == expPC {
		return false
	}
	d := expPC - u32(c.fe.pc)&^3
	return d&3 != 0 || uint64(d>>2) > horizon
}
