package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
)

// Host calibration.
//
// On the shared 2-core sandbox the same binary, seed and ops run up to
// 1.8x slower or faster from one minute to the next: neighbour load moves
// per-thread speed and memory latency in phases that outlast a run (CPU
// time swings with wall time, and no steal time is reported). A bound of
// a few percent on raw host time would therefore reject a change for the
// weather. ROADMAP aim 1 asks for gates that lean on same-run ratios, so
// every end-to-end time is divided by the host's slowdown measured around
// the same op: a fixed kernel that shares no code with the program runs
// on procs goroutines right after each op, once the process has gone
// quiet, and the op's time is divided by that sample over calRefMS (the
// phases flip within seconds, so a run-level average cancels far less;
// averaging in the sample before the op as well changed nothing). Times are thus
// reported in seconds of a reference host on which the kernel takes
// exactly calRefMS; the raw numbers and the run's median slowdown are
// printed beside them and stored in every result file.
//
// The kernel must not depend on what the program under test does to the
// Go heap, or a change that grows live heap or garbage would slow the
// kernel and flatter its own ref times. It therefore allocates nothing:
// its buffers are one anonymous mapping outside the Go heap, its
// goroutines are started once, and a self-test holds a sample to zero
// allocations. A collection the program's own garbage started can still
// overlap a sample; README.md gives the measured size of that effect.
//
// The kernel is frozen: changing it, or calRefMS, redefines every bounded
// time metric and needs a re-measured baseline like any benchmark change.

// calRefMS is the kernel's duration on the reference host: about what the
// sandbox reads in its faster phases.
const calRefMS = 1.8

// calEvery is the least time between two samples: ops shorter than this
// share one, so that the kernel never takes more than a tenth of a run.
const calEvery = 25 * time.Millisecond

// The kernel's phases, run one after the other on every lane at once.
const (
	calLatency = iota // dependent random writes over 32 MiB: memory latency
	calCopy           // 1 MiB block copies: bandwidth, the shape of snapshot, fork and restore
	calCompute        // a slab advanced by a list of closures: the shape of an RTL cycle
	calPhases
)

const (
	calBigBytes  = 32 << 20 // misses every cache level
	calLaneBytes = 2 << 20  // per lane: source and destination of the block copies
)

type calibrator struct {
	mapped []byte // big, then one copy buffer per lane
	big    []byte
	lanes  [procs]calLane
	start  [procs]chan int // the phase to run next; closed to stop the lane
	done   chan struct{}   // one send per lane per phase; buffered for all lanes
	exited sync.WaitGroup

	samples []float64 // ms per sample, for the run's median slowdown
	latest  float64   // the most recent sample, ms
	last    time.Time
}

// calLane is what one goroutine of the kernel works on.
type calLane struct {
	seed uint64
	buf  []byte  // calLaneBytes of the mapping
	sim  *calSim // a frozen mini-simulator
}

// newCalibrator maps the buffers anonymously instead of allocating them:
// tens of MiB of live Go heap would move the collector's trigger point and
// with it the program's own GC pacing.
func newCalibrator() (*calibrator, error) {
	mapped, err := syscall.Mmap(-1, 0, calBigBytes+procs*calLaneBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("calibrator: mmap: %w", err)
	}
	c := &calibrator{mapped: mapped, big: mapped[:calBigBytes], done: make(chan struct{}, procs),
		samples: make([]float64, 0, 4096)} // room for a run's samples, so that taking one allocates nothing
	for g := range c.lanes {
		lo := calBigBytes + g*calLaneBytes
		c.lanes[g] = calLane{seed: uint64(g) + 1, buf: mapped[lo : lo+calLaneBytes], sim: newCalSim(uint64(g) + 1)}
		c.start[g] = make(chan int)
		c.exited.Add(1)
		go c.lane(g)
	}
	c.sample() // pays for the page faults of the mapping
	c.samples = c.samples[:0]
	return c, nil
}

// lane runs phases on request until its start channel is closed.
func (c *calibrator) lane(g int) {
	defer c.exited.Done()
	l := &c.lanes[g]
	for phase := range c.start[g] {
		switch phase {
		case calLatency:
			x := 88172645463325252 + l.seed
			for i := 0; i < 20000; i++ {
				x = xorshift(x)
				c.big[x&(calBigBytes-1)] += byte(x)
			}
		case calCopy:
			half := len(l.buf) / 2
			for i := 0; i < 3; i++ {
				copy(l.buf[:half], l.buf[half:])
				l.buf[half+i] = byte(i)
				copy(l.buf[half:], l.buf[:half])
			}
		case calCompute:
			l.sim.run()
		}
		c.done <- struct{}{}
	}
}

// close stops the lanes, waits for them and unmaps the buffers.
func (c *calibrator) close() {
	for g := range c.start {
		close(c.start[g])
	}
	c.exited.Wait()
	syscall.Munmap(c.mapped) // the process is about to exit or drop the run; nothing to do on failure
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// sample runs the kernel once and records how long it took.
func (c *calibrator) sample() float64 {
	t0 := time.Now()
	for phase := 0; phase < calPhases; phase++ {
		for g := range c.start {
			c.start[g] <- phase
		}
		for range c.start {
			<-c.done
		}
	}
	c.last = time.Now()
	c.latest = float64(c.last.Sub(t0)) / 1e6
	c.samples = append(c.samples, c.latest)
	return c.latest
}

// footprintMB is the resident memory the calibrator holds for the whole
// run, which the peak_rss_mb reading leaves out.
func (c *calibrator) footprintMB() float64 { return float64(len(c.mapped)) / (1 << 20) }

// settle waits until the process has gone quiet: a collection the last
// op's garbage started, a server goroutine finishing up. The kernel is to
// time the host, not whatever the program still has running on the same
// two cores; sampled straight after an op it read up to 1.5x slower in
// the workload with the largest live heap than in the others, on the same
// host. It returns the CPU time the process burned meanwhile, which
// belongs to the op that just ended. Quiet is less than a quarter of one
// core over a step; the wait is capped so that a program that never goes
// quiet still gets its samples.
func (c *calibrator) settle() (tailCPUMS float64) {
	const (
		step    = 200 * time.Microsecond
		quietMS = 0.05
		most    = 25
	)
	start := processUsage().cpuMS
	prev := start
	for i := 0; i < most; i++ {
		time.Sleep(step)
		cpu := processUsage().cpuMS
		if cpu-prev < quietMS {
			return cpu - start
		}
		prev = cpu
	}
	return prev - start
}

// now returns how many times slower than the reference host this host is
// running: from a fresh sample, taken once the process has settled, if
// the latest is older than calEvery. With a fresh sample it also returns
// what settle did.
func (c *calibrator) now() (slow, tailCPUMS float64) {
	if time.Since(c.last) >= calEvery {
		tailCPUMS = c.settle()
		c.sample()
	}
	return c.latest / calRefMS, tailCPUMS
}

// gauge returns the slowdown over n fresh samples, for a piece of work
// too far away (another process) to bracket with two.
func (c *calibrator) gauge(n int) float64 {
	c.settle()
	fresh := make([]float64, n)
	for i := range fresh {
		fresh[i] = c.sample()
	}
	return median(fresh) / calRefMS
}

// calSim is a frozen miniature of what the program spends its time on: a
// state vector copied from a snapshot, then advanced cycle by cycle by a
// list of closures that each combine two words into a third.
type calSim struct {
	base, state []uint64
	procs       []func(s []uint64)
}

func newCalSim(seed uint64) *calSim {
	const words = 2048
	c := &calSim{base: make([]uint64, words), state: make([]uint64, words)}
	x := seed * 88172645463325252
	for i := range c.base {
		x = xorshift(x)
		c.base[i] = x
	}
	for i := 0; i < 512; i++ {
		x = xorshift(x)
		a, b, d := x%words, (x>>16)%words, (x>>32)%words
		c.procs = append(c.procs, func(s []uint64) { s[d] = s[a]*0x9e3779b97f4a7c15 ^ s[b]>>3 })
	}
	return c
}

func (c *calSim) run() {
	for exp := 0; exp < 12; exp++ {
		copy(c.state, c.base)
		for cyc := 0; cyc < 60; cyc++ {
			for _, p := range c.procs {
				p(c.state)
			}
		}
	}
}
