package fault

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/iss"
	"repro/internal/rtl"
)

// This file implements the runner's read log: what the golden continuation
// from rung 0 to program exit read of each net a campaign has faulted so
// far. The golden run belongs to the runner and never changes, so the
// witnessed walk that learns a net's reads is stepped once per net, not once
// per campaign: a campaign asks at plan time for its lanes' nets (readLogs),
// the nets not logged yet ride one walk (logWalk), and every lane is a cursor
// over its net's log (lane.nextActivation). Like the ladder the log is
// golden-only state and never reaches an outcome byte.

// logBudget bounds the read log a runner retains, at the order of the
// ladder's footprint; a constant, not an option. A net that does not fit is
// logged for the asking campaign alone and dropped with it.
const logBudget = 6 << 20

// netRun is a run of consecutive golden cycles [t, t+n) in each of which a
// net recorded the same rtl.WitnessAcc. untouched is kept on unread cycles
// alone — a read fires an upset lane whatever the edge did next, and a
// forcing's probe looks at ones and zeros, which such a run leaves empty.
type netRun struct {
	ones, zeros uint64
	t           uint32
	n           uint16
	writeFirst  bool
	untouched   bool
}

// change says a net's raw word reads v from the cycle boundary t on.
type change struct {
	v uint64
	t uint32
}

// blocks is an append-only sequence in small fixed blocks: it grows without
// moving, doubling or a second copy, so a walk allocates and first-touches
// what it logs and little more — which a cold campaign in a fresh process
// pays for.
type blocks[T any] struct {
	b [][]T
	n int
}

const blockLen = 16

func (s *blocks[T]) at(i int) *T { return &s.b[i/blockLen][i%blockLen] }

func (s *blocks[T]) push(x T) {
	if s.n == len(s.b)*blockLen {
		s.b = append(s.b, make([]T, blockLen))
	}
	*s.at(s.n) = x
	s.n++
}

// netLog is one net's golden reads, immutable once published: its runs in
// time order, its raw word at rung 0 and what else its lanes asked for.
// first[v][b] is the index of the first run that read bit b as v, -1 if
// none did: a forcing's first activation from the log's start, without a
// scan (lane.nextActivation).
type netLog struct {
	runs  blocks[netRun]
	v0    uint64
	vals  blocks[change]
	has   logExtra
	first [2][64]int32
}

// logExtra is what a net's log holds beyond its reads, walked on demand: a
// net logged without something a lane now asks for is walked again and
// replaced.
type logExtra uint8

const (
	// logValues: the raw word's changes after rung 0, for a net that carries
	// a SET lane, the one model that samples the charge at an instant of its
	// own.
	logValues logExtra = 1 << iota
	// logEdges: what each clock edge did with the word a register held
	// (rtl.Witness.WatchEdges), for one that carries an upset lane. An array
	// word's write side comes with its reads.
	logEdges
)

// bytes is the log's footprint against logBudget: its blocks, their lists,
// the first-read table (512) and a flat charge for the rest of the struct.
func (lg *netLog) bytes() int {
	if lg == nil {
		return 0
	}
	return 160 + 512 + 24*(cap(lg.runs.b)+cap(lg.vals.b)) + blockLen*(24*len(lg.runs.b)+16*len(lg.vals.b))
}

// noneRead is the first-read table of a log no run has read.
var noneRead = func() (t [2][64]int32) {
	for v := range t {
		for b := range t[v] {
			t[v][b] = -1
		}
	}
	return t
}()

// noteFirst records run j, ru, as the first reader of every bit it reads as
// 0 or as 1 that no earlier run read so; seen is what the earlier runs read,
// and takes ru's reads.
func (lg *netLog) noteFirst(seen *[2]uint64, ru netRun, j int) {
	for v, m := range [2]uint64{ru.zeros &^ seen[0], ru.ones &^ seen[1]} {
		for ; m != 0; m &= m - 1 {
			lg.first[v][bits.TrailingZeros64(m)] = int32(j)
		}
	}
	seen[0], seen[1] = seen[0]|ru.zeros, seen[1]|ru.ones
}

// valueAt returns the net's raw word at cycle boundary t.
func (lg *netLog) valueAt(t uint64) uint64 {
	if i := sort.Search(lg.vals.n, func(i int) bool { return uint64(lg.vals.at(i).t) > t }); i > 0 {
		return lg.vals.at(i - 1).v
	}
	return lg.v0
}

// readLog is a runner's logged nets. mu serialises lookups and walks, so
// concurrent campaigns — the shards of one request — share a walk's nets
// instead of each stepping their own. A log is published through its net's
// pointer once walked and never changes, so a worker parking a universe on
// the logs of the words it differs in (Runner.park) loads them without the
// lock: one another campaign publishes meanwhile serves it from then on.
type readLog struct {
	mu     sync.Mutex
	nets   []atomic.Pointer[netLog] // by net id of the design, sized by NewRunner; nil for a net not logged
	bytes  int
	budget int // logBudget; tests lower it
}

// readLogs fills m.logs with the log of every net of m's campaign, walking
// the golden continuation once for those the runner has not logged (with
// the extras its lanes now ask for, and those it had). On a witness that
// fails to arm it leaves m.logs empty and the campaign's lanes run scalar.
func (r *Runner) readLogs(m *memo) {
	// The ladder a walk forks from is built before the lock is taken, not
	// under it: cold concurrent campaigns wait for the one build together,
	// then queue for the log, whose holder steps its walk and nothing else.
	r.ladder()
	lg := &r.log
	lg.mu.Lock()
	defer lg.mu.Unlock()
	d := design()
	m.logs = m.logs[:0]
	var miss []int // indices into m.nets
	var nets []rtl.WitnessNet
	var extras []logExtra
	for i, net := range m.nets {
		l := lg.nets[net].Load()
		if x := m.extras[i]; l == nil || x&^l.has != 0 {
			if l != nil {
				x |= l.has // a net logged without what a lane now asks for is walked again
			}
			l, miss, nets, extras = nil, append(miss, i), append(nets, d.nets[net]), append(extras, x)
		}
		m.logs = append(m.logs, l)
	}
	r.met.logHit.Add(float64(len(m.nets) - len(miss)))
	if len(miss) == 0 {
		return
	}
	fresh := r.logWalk(nets, extras)
	if fresh == nil {
		m.logs = m.logs[:0]
		return
	}
	for k, i := range miss {
		l, net := fresh[k], m.nets[i]
		m.logs[i] = l
		// A net logged before without its raw values is replaced.
		if size := l.bytes() - lg.nets[net].Load().bytes(); lg.bytes+size <= lg.budget {
			lg.nets[net].Store(l)
			lg.bytes += size
			r.met.logLogged.Inc()
			r.met.logBytes.Add(float64(size))
		} else {
			r.met.logScratch.Inc()
		}
	}
}

// logWalk is the witnessed golden walk: one clean continuation from rung 0
// to program exit over nets, nil were the witness not to arm. Each cycle's
// observations extend the net's latest run or open a new one. With
// logValues a signal's raw word is compared at every cycle boundary; an
// array word changes only through a write, which the witness records (first,
// or after the read that did), so it is compared on the cycles it was
// touched alone. With logEdges the witness watches a register's clock edges.
// The first run to read a bit as 0, or as 1, is noted in the log's first.
func (r *Runner) logWalk(nets []rtl.WitnessNet, extras []logExtra) []*netLog {
	eng := r.getEngine()
	defer r.putEngine(eng)
	core := eng.core
	lad := r.ladder()
	lad.fork(eng, lad.start)
	start := core.Cycles()
	w, err := core.K.StartWitness(nets)
	if err != nil {
		return nil
	}
	var (
		logs   = make([]*netLog, len(nets))
		evs    []rtl.WitnessEvent
		poll   []int32                        // the signals whose raw word is polled
		onRead = make([]bool, len(nets))      // the array words compared when touched
		last   = make([]uint64, len(nets))    // a polled net's raw word when last compared
		read   = make([][2]uint64, len(nets)) // per net, the bits its runs read as 0, as 1
	)
	for k, n := range nets {
		last[k] = w.Sample(k)
		// Each log is its own object: a kept one must not pin a dropped one.
		logs[k] = &netLog{v0: last[k], has: extras[k], first: noneRead}
		if extras[k]&logValues != 0 {
			if onRead[k] = core.K.IsArrayWord(rtl.Node{Name: n.Name}); !onRead[k] {
				poll = append(poll, int32(k))
			}
		}
		if extras[k]&logEdges != 0 && w.WatchEdges(k) != nil {
			w.Stop()
			return nil
		}
	}
	changed := func(k int32, t uint32) {
		if v := w.Sample(int(k)); v != last[k] {
			last[k] = v
			logs[k].vals.push(change{v, t})
		}
	}
	var walkStart time.Time
	if r.met.live {
		// Behind the live flag: an unregistered engine never reads the
		// clock, and the value only feeds the golden-pass rate metric.
		walkStart = time.Now() //lint:allow det live-guarded golden-pass metric
	}
	for core.Status() == iss.StatusRunning {
		t := uint32(core.Cycles())
		for _, k := range poll {
			changed(k, t)
		}
		core.StepCycle()
		evs = w.Drain(evs[:0])
		for _, e := range evs {
			if onRead[e.Net] {
				changed(e.Net, t+1)
			}
			runs, a := &logs[e.Net].runs, e.Acc
			next := netRun{a.Ones, a.Zeros, t, 1, a.WriteFirst, a.Untouched && a.Ones|a.Zeros == 0}
			if runs.n > 0 {
				if ru := runs.at(runs.n - 1); ru.t+uint32(ru.n) == t && ru.n < math.MaxUint16 &&
					ru.ones == next.ones && ru.zeros == next.zeros && ru.writeFirst == next.writeFirst && ru.untouched == next.untouched {
					ru.n++
					continue
				}
			}
			if seen := &read[e.Net]; next.zeros&^seen[0]|next.ones&^seen[1] != 0 {
				logs[e.Net].noteFirst(seen, next, runs.n)
			}
			runs.push(next)
		}
	}
	w.Stop()
	if r.met.live {
		r.met.goldenSeconds.Add(time.Since(walkStart).Seconds()) //lint:allow det live-guarded golden-pass metric
		r.met.goldenCycles.Add(float64(core.Cycles() - start))
	}
	return logs
}
