package fault

import (
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
)

// SampleNodes draws a deterministic uniform sample of n nodes (statistical
// fault injection): nodes at the first n positions of
// rand.New(rand.NewSource(seed)).Perm(len(nodes)). If n >= len(nodes) the
// full set is returned, in order; if n <= 0, an empty sample.
//
// The draws are math/rand's, made in place (DESIGN.md §8): its source is a
// stream held in this frame, Intn's remainder is a multiply by the modulus's
// reciprocal (Lemire, Kaser & Kurz, "Faster Remainder by Direct
// Computation", 2019), and its rejection threshold, itself a remainder, is
// computed only for a draw that could be rejected. A population has fewer
// than 2³¹ nodes, so every draw is Int31n's.
func SampleNodes(nodes []NodeInfo, n int, seed int64) []NodeInfo {
	return SampleNodesInto(nil, nodes, n, seed)
}

// SampleNodesInto is SampleNodes written over dst's storage, which it
// allocates only when dst is too short: a caller that draws one sample after
// another can keep one array for them all. The whole population and the
// empty sample are SampleNodes' and leave dst unused.
func SampleNodesInto(dst, nodes []NodeInfo, n int, seed int64) []NodeInfo {
	if n >= len(nodes) {
		return nodes
	}
	if n <= 0 {
		return []NodeInfo{}
	}
	// Perm's inside-out shuffle (m[i] = m[j]; m[j] = i, j drawn from [0,i])
	// on the first n positions alone: a step moves what sits at a position
	// at or past n only to another such position, so the prefix needs every
	// draw and nothing else of the permutation. Position n stands for all of
	// those: what is stored there is never read.
	var s stream
	s.seed(seed, cooked())
	size := len(nodes)
	recip := reciprocals(size)[:size+1]
	idx := make([]int32, n+1)
	for i := 0; i < size; {
		s.refill()
		for _, x := range &s {
			// j = Intn(m): Int31n's answer to x or, when it rejects x, to
			// the next output.
			m := uint32(i) + 1
			v, r := int31(x), recip[m]
			if rejects(v, m, r) {
				continue
			}
			j := int(fastmod(v, r, m))
			if i < n {
				idx[i], idx[j] = idx[j], int32(i)
			} else {
				idx[min(j, n)] = int32(i)
			}
			if i++; i == size {
				break
			}
		}
	}
	if cap(dst) < n {
		dst = make([]NodeInfo, n)
	}
	out := dst[:n]
	for k, i := range idx[:n] {
		out[k] = nodes[i]
	}
	return out
}

// int31 is Rand.Int31 of the source output x: its bits 32 to 62.
func int31(x uint64) uint32 { return uint32(x>>32) & (1<<31 - 1) }

// rejects reports whether Rand.Int31n(m) rejects the Int31 draw v and draws
// again, given r = reciprocal(m): v at or above 2³¹ − (2³¹ mod m), the
// largest multiple of m up to 2³¹, so never for a power of two. Int31n
// answers an accepted v with v mod m. The threshold takes a remainder, so it
// is computed only for v at or above 2³¹−m, which any rejected v is.
func rejects(v, m uint32, r uint64) bool {
	return v >= 1<<31-m && v >= 1<<31-fastmod(1<<31, r, m)
}

// fastmod returns v mod m, given r = reciprocal(m): the fractional part of
// v/m, held in the low 64 bits of r·v, times m. Exact for every 32-bit v and m.
func fastmod(v uint32, r uint64, m uint32) uint32 {
	hi, _ := bits.Mul64(r*uint64(v), uint64(m))
	return uint32(hi)
}

// reciprocal returns ⌈2⁶⁴/m⌉ modulo 2⁶⁴, fastmod's multiplier for m ≥ 1.
func reciprocal(m uint32) uint64 { return ^uint64(0)/uint64(m) + 1 }

// recips is reciprocal(m) at index m ≥ 1, for every m up to the largest
// population sampled so far; it only grows, and a published table is never
// written again.
var (
	recips   atomic.Pointer[[]uint64]
	recipsMu sync.Mutex
)

// reciprocals returns a table of reciprocal(m) for every 1 ≤ m ≤ size.
func reciprocals(size int) []uint64 {
	if t := recips.Load(); t != nil && len(*t) > size {
		return *t
	}
	recipsMu.Lock()
	defer recipsMu.Unlock()
	if t := recips.Load(); t != nil && len(*t) > size {
		return *t
	}
	t := make([]uint64, size+1)
	for m := 1; m <= size; m++ {
		t[m] = reciprocal(uint32(m))
	}
	recips.Store(&t)
	return t
}

// stream is math/rand's source (rngSource: the additive lagged-Fibonacci
// generator x[t] = x[t-607] + x[t-273] mod 2⁶⁴, by Mitchell and Reeds) as a
// block of its outputs: the latest 607, oldest first, which refill replaces
// with the next 607. The source's own ring runs backwards from index 333; a
// stream is that ring read in output order.
type stream [streamLen]uint64

const (
	streamLen = 607 // rngLen
	streamLag = 273 // rngTap
	mersenne  = 1<<31 - 1
)

// refill advances the stream by streamLen outputs: w[k] += w[k-273], the
// lagged term the first 273 of them take being the previous block's.
func (s *stream) refill() {
	for k := range streamLag {
		s[k] += s[k+streamLen-streamLag]
	}
	for k := streamLag; k < streamLen; k++ {
		s[k] += s[k-streamLag]
	}
}

// seed sets s to rngSource.Seed(seed)'s state: words drawn from the seed's
// Lehmer sequence x ← 48271·x mod (2³¹−1), exclusive-or the seeding table
// (cooked(); all zeros while it is being recovered). The first refill
// yields the source's first outputs.
func (s *stream) seed(seed int64, table *[streamLen]uint64) {
	seed %= mersenne
	if seed < 0 {
		seed += mersenne
	}
	if seed == 0 {
		seed = 89482311
	}
	// Word i takes the sequence's terms 21+3i, 22+3i and 23+3i: three chains,
	// each 3 steps a word, which the processor runs side by side.
	a := mulmod(uint64(seed), lehmerA21)
	b := mulmod(a, lehmerA)
	c := mulmod(b, lehmerA)
	// The source's ring index i is the stream's (333 - i) mod 607.
	k := streamLen - streamLag - 1
	for range streamLen {
		s[k] = (a<<40 ^ b<<20 ^ c) ^ table[k]
		a, b, c = mulmod(a, lehmerA3), mulmod(b, lehmerA3), mulmod(c, lehmerA3)
		if k == 0 {
			k = streamLen
		}
		k--
	}
}

// The Lehmer multiplier and its powers modulo 2³¹−1.
const (
	lehmerA   = 48271
	lehmerA3  = lehmerA * lehmerA % mersenne * lehmerA % mersenne
	lehmerA6  = lehmerA3 * lehmerA3 % mersenne
	lehmerA21 = lehmerA6 * lehmerA6 % mersenne * lehmerA6 % mersenne * lehmerA3 % mersenne
)

// unrefill is refill's inverse: each output less its lagged term, the last
// first.
func (s *stream) unrefill() {
	for k := streamLen - 1; k >= streamLag; k-- {
		s[k] -= s[k-streamLag]
	}
	for k := range streamLag {
		s[k] -= s[k+streamLen-streamLag]
	}
}

// mulmod returns a·x mod (2³¹−1) for a, x < 2³¹−1, as Schrage's method in
// rngSource's seedrand does for a = 48271, without its divisions: the
// product's bits above 31 fold onto the low ones (2³¹ ≡ 1), and the fold
// is at most one modulus over.
func mulmod(x, a uint64) uint64 {
	p := x * a
	p = p&mersenne + p>>31
	return min(p, p-mersenne) // p-mersenne wraps around when p < mersenne
}

// cooked is math/rand's seeding table (rngCooked), in stream order, recovered
// at first use from the source itself rather than copied: the first block
// of rand.NewSource(1), stepped back, is seed 1's seeded state, and that
// less seed 1's Lehmer words is the table.
var cooked = sync.OnceValue(func() *[streamLen]uint64 {
	src := rand.NewSource(1).(rand.Source64)
	var s, lehmerWords stream
	for k := range s {
		s[k] = src.Uint64()
	}
	s.unrefill()
	lehmerWords.seed(1, &[streamLen]uint64{})
	t := new([streamLen]uint64)
	for k := range t {
		t[k] = s[k] ^ lehmerWords[k]
	}
	return t
})
