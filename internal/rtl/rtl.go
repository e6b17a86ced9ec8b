// Package rtl provides a cycle-based register-transfer-level simulation
// kernel: named, width-typed signals (wires and registers), memory arrays,
// ordered combinational processes with a two-phase evaluate/commit clock,
// and per-bit fault forcing.
//
// It plays the role the VHDL simulator plays in the reproduced paper. In
// particular it implements simulator-command fault injection in the style
// of MEFISTO [Jenn et al., FTCS 1994]: faults are forced onto existing
// signals without instrumenting the model. Three permanent fault models
// are supported — stuck-at-0, stuck-at-1 and open-line (a disconnected
// driver whose net retains the charge it had at injection time) — plus
// two transient models: bit-flip (a single-event upset that inverts the
// committed value once) and SET pulse (the bit forced to its complement
// for a bounded window, then released).
//
// Fault forcing is read-side for every model except bit-flip: Inject
// never rewrites slab state, it only redirects what consumers observe.
// That property is the seam the bit-parallel (PPSFP) campaign engine is
// built on: StartWitness arms per-net read observation, each cycle's
// WitnessAcc records exactly which bit values the design consumed, and a
// fault universe whose forced value is never read differently from the
// golden run provably cannot diverge — one witnessed golden pass
// therefore resolves up to 64 such universes (lanes) at once (see
// internal/fault and DESIGN.md §10). InjectForced arms open-line and
// SET-pulse faults with an externally sampled charge so a lane's fork
// reproduces the scalar engine's injection instant exactly. A bit-flip
// joins the lanes through the witness's write side, which records what
// became of the word a net held: an array word changes only through
// MemArray.Write and is seen only through MemArray.Read, a register is
// carried over the clock edge by a raw copy (Hold, Group.Hold) or replaced
// by a scheduled value (SetNext) and is seen only through Get, and
// WitnessAcc.WriteFirst records that the word was replaced before anything
// read it (Witness.WatchEdges has the register mechanism, which costs the
// kernel's own paths nothing).
//
// # Slab state layout
//
// All dynamic state lives in kernel-owned flat slabs rather than in
// per-signal heap objects: one []uint64 pair (committed/pending) for the
// clocked signals, one pair for the wires, and one contiguous []uint64
// backing every memory array. Signal and MemArray are thin handles:
// a signal carries direct pointers into its slab slots, an array carries
// a subslice view of the array slab. The layout buys three things on the
// simulation hot path: the clock edge commits every register with a
// single bulk copy of the register slab (no per-signal scan), Snapshot
// and Restore are bulk slab copies instead of per-signal walks, and Get
// collapses to one pointer load plus one well-predicted branch on a
// per-signal slow-path flag (set only for the ≤1 faulted node of an
// experiment, with the kernel-level dirty flag guarding the
// campaign engine's clear/restore walks).
//
// # Clean twins
//
// Even that branch is paid only where a probe can fire. A design may
// register each process twice (Twin): probed, reading through Get and
// Read, and clean, the same code with every read raw (Signal.Raw,
// MemArray.ReadRaw) — the leon3 core generates its clean twin from its
// probed stages with go generate. Cycle picks the build once per cycle,
// by structure alone: with no fault armed (the dirty flag) and no witness
// armed (a count StartWitness and Stop keep), no read can be forced or
// recorded, so it runs the clean twins; otherwise the probed ones. Golden
// runs, ladder walks and faulted universes whose fault is a past bit-flip
// run clean; a universe with a forcing armed and every witnessed walk run
// probed. Faults are still forced by the simulator, never by the model:
// the twin drops probes that cannot fire, it does not instrument anything.
// Writes have one build: Write keeps the touched-word tracking a restored
// kernel needs whatever is armed.
package rtl

import (
	"fmt"
	"sort"
	"strings"
)

// Unit tags a signal with the functional unit it belongs to, so that
// injection nodes can be grouped the way the paper groups them (IU versus
// CMEM, and per functional unit for the diversity weighting).
type Unit uint8

// Signal is a named RTL net carrying up to 64 bits. Registers additionally
// hold a pending next value committed on the clock edge. The values
// themselves live in the owning kernel's slabs; the Signal is a handle
// pointing at its two slab slots.
type Signal struct {
	curp *uint64 // committed value (slab slot)
	nxtp *uint64 // pending value (slab slot)
	mask uint64  // width mask

	slow   uint8 // nonzero when a fault or witness is armed on this net
	reg    bool
	tagged bool // a witness watches the clock edges (Witness.WatchEdges)
	width  int
	idx    int32 // index within the reg or wire slab

	fMask uint64 // faulted bits, and the edge tags of a tagged signal
	fVal  uint64 // values of faulted bits

	obs *observer // read-observation accumulator (nil unless witnessed)

	k    *Kernel
	name string
}

// Name returns the hierarchical signal name.
func (s *Signal) Name() string { return s.name }

// Width returns the signal width in bits.
func (s *Signal) Width() int { return s.width }

// IsReg reports whether the signal is clocked.
func (s *Signal) IsReg() bool { return s.reg }

// Get samples the signal as seen by consumers, with any injected fault
// applied at the net. The clean-design fast path is a single slab load;
// only the (at most one) faulted net of an experiment takes the slow
// path.
func (s *Signal) Get() uint64 {
	if s.slow != 0 {
		return s.getSlow()
	}
	return *s.curp
}

// getSlow samples the signal with the armed fault forcing applied, and
// records the sampled value into the witness
// accumulator when one is armed. It is kept out of line so that Get (and
// GetBool) stay small enough to inline at every sampling site; the call
// is taken only on faulted or witnessed nets.
//
//go:noinline
func (s *Signal) getSlow() uint64 {
	v := *s.curp&^s.fMask | s.fVal
	if o := s.obs; o != nil {
		o.touch()
		o.Ones |= v
		o.Zeros |= ^v
	}
	return v
}

// updateSlow recomputes the slow-path flag after fault or witness changes.
func (s *Signal) updateSlow() {
	if s.fMask != 0 || s.obs != nil {
		s.slow = 1
	} else {
		s.slow = 0
	}
}

// GetBool samples a 1-bit signal.
func (s *Signal) GetBool() bool { return s.Get() != 0 }

// Raw returns the committed value with no probe: no forcing, no witness.
// It is what Get returns on a net with nothing armed, and only a process
// the kernel runs as a clean twin (Twin) may call it.
func (s *Signal) Raw() uint64 { return *s.curp }

// RawBool is Raw of a 1-bit signal.
func (s *Signal) RawBool() bool { return *s.curp != 0 }

// Set drives a wire combinationally (visible to processes that run later
// in the same cycle).
func (s *Signal) Set(v uint64) { *s.curp = v & s.mask }

// SetBool drives a 1-bit wire.
func (s *Signal) SetBool(v bool) {
	if v {
		s.Set(1)
	} else {
		s.Set(0)
	}
}

// SetNext schedules a register value for the next clock edge.
func (s *Signal) SetNext(v uint64) { *s.nxtp = v & s.mask }

// SetNextBool schedules a 1-bit register value.
func (s *Signal) SetNextBool(v bool) {
	if v {
		s.SetNext(1)
	} else {
		s.SetNext(0)
	}
}

// Next returns the currently scheduled next value (used by hold logic to
// re-schedule the present value).
func (s *Signal) Next() uint64 { return *s.nxtp & s.mask }

// Hold re-schedules the current committed value, stalling the register.
func (s *Signal) Hold() { *s.nxtp = *s.curp }

// MemArray is an addressable RTL memory block (register file, cache tag or
// data RAM) with per-bit fault support on a single cell at a time. Its
// words live in the kernel's contiguous array slab; data is a subslice
// view into it.
type MemArray struct {
	data  []uint64
	mask  uint64
	fWord int // faulted word (-1 when clean)
	fMask uint64
	fVal  uint64

	obs   []*observer // per-word read observers (nil unless witnessed)
	armed int32       // words with an observer, over every witness
	rslow bool        // Read probes: a word is forced or witnessed
	slow  bool        // Write records: a witness is armed or the kernel tracks writes

	off int // word offset into the kernel array slab
	// touched is the array's window of the kernel's touched bitmap (bit i:
	// word i written since the last Restore), nil unless the kernel tracks
	// writes.
	touched []uint64
	width   int
	name    string
}

// Name returns the array name.
func (a *MemArray) Name() string { return a.name }

// Len returns the number of words.
func (a *MemArray) Len() int { return len(a.data) }

// Width returns the word width in bits.
func (a *MemArray) Width() int { return a.width }

// Read samples word i with any injected fault applied, recording the
// sampled value when the word is witnessed.
func (a *MemArray) Read(i int) uint64 {
	if a.rslow {
		return a.readSlow(i)
	}
	return a.data[i]
}

// readSlow samples word i of an array with a forced or witnessed word. It
// is kept out of line so that Read stays one test and a load, as Get keeps
// getSlow.
//
//go:noinline
func (a *MemArray) readSlow(i int) uint64 {
	v := a.data[i]
	if i == a.fWord {
		v = (v &^ a.fMask) | a.fVal
	}
	if a.obs != nil {
		if o := a.obs[i]; o != nil {
			o.touch()
			o.Ones |= v
			o.Zeros |= ^v
		}
	}
	return v
}

// ReadRaw returns word i with no probe: no forcing, no witness. It is what
// Read returns on an array with nothing armed, and only a process the
// kernel runs as a clean twin (Twin) may call it.
func (a *MemArray) ReadRaw(i int) uint64 { return a.data[i] }

// Write stores word i. Faulted bits ignore the write (the cell is stuck).
// On a witnessed word, a write that lands before any read recorded since
// the accumulator was last drained is marked WriteFirst: array writes are
// immediate, so within one cycle the order of a word's write and its
// reads decides whether the old contents were ever consumed. On a kernel
// that tracks writes (one restored from a snapshot) the word is marked
// touched.
func (a *MemArray) Write(i int, v uint64) {
	a.data[i] = v & a.mask
	if a.slow {
		a.writeSlow(i)
	}
}

// writeSlow records a write to word i: the touched mark, the witness's
// WriteFirst. It is kept out of line so that Write stays small enough to
// inline, as Signal.Get keeps getSlow.
//
//go:noinline
func (a *MemArray) writeSlow(i int) {
	a.mark(i)
	if a.obs != nil {
		if o := a.obs[i]; o != nil && o.Ones|o.Zeros == 0 {
			o.touch()
			o.WriteFirst = true
		}
	}
}

// updateSlow recomputes the slow-path flags after fault, witness or
// tracking changes.
func (a *MemArray) updateSlow() {
	a.rslow = a.obs != nil || a.fWord >= 0
	a.slow = a.obs != nil || a.touched != nil
}

// mark marks word i written, on a kernel that tracks writes.
func (a *MemArray) mark(i int) {
	if len(a.touched) != 0 {
		a.touched[i>>6] |= 1 << (i & 63)
	}
}

// Kernel owns the signals, arrays and processes of a design and advances
// it cycle by cycle. All signal and array values live in the kernel's
// flat slabs (see the package comment).
type Kernel struct {
	regCur  []uint64 // committed values of clocked signals
	regNxt  []uint64 // pending values of clocked signals
	wireCur []uint64 // committed values of wires
	wireNxt []uint64 // pending values of wires (API fidelity only)
	arr     []uint64 // contiguous backing of every memory array

	signals []*Signal
	arrays  []*MemArray
	decls   map[string]decl // per signal/array name
	procs   []func()        // the probed processes
	clean   []func()        // their clean twins (see Twin)
	cycle   uint64

	faults    []Fault
	fSigs     []*Signal   // signals with armed faults
	fArrs     []*MemArray // arrays with armed faults
	dirty     bool        // any fault armed on the design
	witnesses int         // armed witnesses (StartWitness, Stop)

	// touched marks, one bit per array word, the words written since base
	// was restored: array by array in declaration order, each array's bits
	// from a fresh bitmap word (MemArray.touched is its window). It is nil
	// until the first Restore, so a kernel only ever run from reset tracks
	// nothing (see RestoreNear).
	touched []uint64
	base    *Snapshot // the snapshot last restored; nil before it and after ResetState
}

// decl is what a declared name resolves to: its unit, and its handle's
// place in signals or arrays, so that every arm, flip and witness finds
// its node with one lookup instead of a scan of the declarations.
type decl struct {
	unit  Unit
	array bool
	idx   int32
}

// findSignal returns the signal declared under name, or nil.
func (k *Kernel) findSignal(name string) *Signal {
	if d, ok := k.decls[name]; ok && !d.array {
		return k.signals[d.idx]
	}
	return nil
}

// findArray returns the memory array declared under name, or nil.
func (k *Kernel) findArray(name string) *MemArray {
	if d, ok := k.decls[name]; ok && d.array {
		return k.arrays[d.idx]
	}
	return nil
}

// NewKernel returns an empty design.
func NewKernel() *Kernel {
	return &Kernel{decls: make(map[string]decl)}
}

// repoint refreshes every signal handle's slab pointers (slab growth
// during design construction may move the backing arrays).
func (k *Kernel) repoint() {
	for _, s := range k.signals {
		if s.reg {
			s.curp, s.nxtp = &k.regCur[s.idx], &k.regNxt[s.idx]
		} else {
			s.curp, s.nxtp = &k.wireCur[s.idx], &k.wireNxt[s.idx]
		}
	}
}

func (k *Kernel) addSignal(name string, width int, unit Unit, reg bool) *Signal {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("rtl: signal %s: bad width %d", name, width))
	}
	if _, dup := k.decls[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate name %s", name))
	}
	s := &Signal{k: k, name: name, width: width, reg: reg}
	if width == 64 {
		s.mask = ^uint64(0)
	} else {
		s.mask = 1<<width - 1
	}
	var grew bool
	if reg {
		s.idx = int32(len(k.regCur))
		grew = cap(k.regCur) == len(k.regCur)
		k.regCur = append(k.regCur, 0)
		k.regNxt = append(k.regNxt, 0)
	} else {
		s.idx = int32(len(k.wireCur))
		grew = cap(k.wireCur) == len(k.wireCur)
		k.wireCur = append(k.wireCur, 0)
		k.wireNxt = append(k.wireNxt, 0)
	}
	k.decls[name] = decl{unit: unit, idx: int32(len(k.signals))}
	k.signals = append(k.signals, s)
	if grew {
		// The append moved the slab backing; refresh every handle.
		k.repoint()
	} else if reg {
		s.curp, s.nxtp = &k.regCur[s.idx], &k.regNxt[s.idx]
	} else {
		s.curp, s.nxtp = &k.wireCur[s.idx], &k.wireNxt[s.idx]
	}
	return s
}

// Wire declares a combinational signal.
func (k *Kernel) Wire(name string, width int, unit Unit) *Signal {
	return k.addSignal(name, width, unit, false)
}

// Reg declares a clocked signal.
func (k *Kernel) Reg(name string, width int, unit Unit) *Signal {
	return k.addSignal(name, width, unit, true)
}

// Array declares a memory block of n words.
func (k *Kernel) Array(name string, width, n int, unit Unit) *MemArray {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("rtl: array %s: bad width %d", name, width))
	}
	if _, dup := k.decls[name]; dup {
		panic(fmt.Sprintf("rtl: duplicate name %s", name))
	}
	off := len(k.arr)
	k.arr = append(k.arr, make([]uint64, n)...)
	a := &MemArray{off: off, name: name, width: width, fWord: -1}
	if width == 64 {
		a.mask = ^uint64(0)
	} else {
		a.mask = 1<<width - 1
	}
	a.data = k.arr[off : off+n : off+n]
	k.decls[name] = decl{unit: unit, array: true, idx: int32(len(k.arrays))}
	k.arrays = append(k.arrays, a)
	// Growing the slab may have moved its backing; re-point the existing
	// arrays' views (their slice lengths are unaffected by the move).
	for _, ar := range k.arrays[:len(k.arrays)-1] {
		sz := len(ar.data)
		ar.data = k.arr[ar.off : ar.off+sz : ar.off+sz]
	}
	return a
}

// Comb appends a combinational process; processes run in registration
// order each cycle, so producers must be registered before consumers.
func (k *Kernel) Comb(p func()) { k.Twin(p, p) }

// Twin appends a combinational process in two builds: probed, whose reads
// go through Get and Read, and clean, the same process with every read raw
// (Signal.Raw, MemArray.ReadRaw). A cycle with no fault and no witness
// armed runs the clean twins; any other cycle runs the probed ones. The two
// must compute the same state from the same state whenever nothing is
// armed, and may differ only in what they cost.
func (k *Kernel) Twin(clean, probed func()) {
	k.clean = append(k.clean, clean)
	k.procs = append(k.procs, probed)
}

// Group is a precomputed set of registers that stall together. Holding a
// group re-schedules every member's committed value with one tight loop
// over slab indices, replacing a per-signal virtual dispatch on the
// pipeline-stall hot path.
type Group struct {
	k    *Kernel
	idxs []int32
}

// Group precomputes a hold group over the given clocked signals.
func (k *Kernel) Group(sigs ...*Signal) Group {
	g := Group{k: k, idxs: make([]int32, len(sigs))}
	for i, s := range sigs {
		if s.k != k {
			panic("rtl: group signal from another kernel")
		}
		if !s.reg {
			panic(fmt.Sprintf("rtl: group signal %s is not clocked", s.name))
		}
		g.idxs[i] = s.idx
	}
	return g
}

// Hold stalls every signal in the group (nxt = cur).
func (g Group) Hold() {
	cur, nxt := g.k.regCur, g.k.regNxt
	for _, i := range g.idxs {
		nxt[i] = cur[i]
	}
}

// Cycle evaluates all combinational processes once and commits every
// register with one bulk copy of the register slab. With nothing armed —
// no fault, no witness — no read can be forced or recorded, so it runs
// the clean twins (Twin), which pay for no probe.
func (k *Kernel) Cycle() {
	procs := k.procs
	if !k.dirty && k.witnesses == 0 {
		procs = k.clean
	}
	for _, p := range procs {
		p()
	}
	copy(k.regCur, k.regNxt)
	k.cycle++
}

// Now returns the number of elapsed cycles.
func (k *Kernel) Now() uint64 { return k.cycle }

// ResetState returns every signal, array and the cycle counter to the
// all-zero power-on state and clears any armed faults. The
// design structure (signals, arrays, processes) is untouched, so a kernel
// can be reset in place and re-run instead of being rebuilt.
func (k *Kernel) ResetState() {
	k.ClearFaults()
	clear(k.regCur)
	clear(k.regNxt)
	clear(k.wireCur)
	clear(k.wireNxt)
	clear(k.arr)
	k.cycle = 0
	k.base = nil
}

// touch marks array-slab word j written, on a kernel that tracks writes.
func (k *Kernel) touch(j int) {
	for _, a := range k.arrays {
		if i := j - a.off; i >= 0 && i < len(a.data) {
			a.mark(i)
			return
		}
	}
}

// UnitOf returns the functional unit a signal or array name was declared
// under.
func (k *Kernel) UnitOf(name string) Unit { return k.decls[name].unit }

// Signals returns the declared signals (stable order).
func (k *Kernel) Signals() []*Signal { return k.signals }

// Arrays returns the declared memory blocks (stable order).
func (k *Kernel) Arrays() []*MemArray { return k.arrays }

// String summarizes the design.
func (k *Kernel) String() string {
	bits := 0
	for _, s := range k.signals {
		bits += s.width
	}
	abits := 0
	for _, a := range k.arrays {
		abits += a.width * len(a.data)
	}
	return fmt.Sprintf("rtl{%d signals (%d bits), %d arrays (%d bits), %d procs}",
		len(k.signals), bits, len(k.arrays), abits, len(k.procs))
}

// SignalNamesByPrefix returns the names of signals and arrays under a
// hierarchy prefix, sorted.
func (k *Kernel) SignalNamesByPrefix(prefix string) []string {
	var out []string
	for name := range k.decls {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}
