package fault

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// sampleSeeds are the seeds the sampler tests and FuzzSampleNodes's corpus
// start from: zero and its stand-in 89482311 (rngSource.Seed maps 0 there),
// either side of 2³¹−1, which the seed is reduced modulo, and the extremes.
var sampleSeeds = []int64{0, -1, 1<<31 - 1, 1 << 31, -1 << 31, math.MaxInt64, math.MinInt64, 89482311}

// mathrandSample is SampleNodes as math/rand draws it: the loop the in-place
// stream replaced, kept as BenchmarkSampleNodes's baseline.
func mathrandSample(nodes []NodeInfo, n int, seed int64) []NodeInfo {
	if n >= len(nodes) {
		return nodes
	}
	if n <= 0 {
		return []NodeInfo{}
	}
	rng := rand.New(rand.NewSource(seed))
	idx := make([]int32, n+1)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		idx[i], idx[j] = idx[j], int32(i)
	}
	for i := n; i < len(nodes); i++ {
		idx[min(rng.Intn(i+1), n)] = int32(i)
	}
	out := make([]NodeInfo, n)
	for k, i := range idx[:n] {
		out[k] = nodes[i]
	}
	return out
}

// population is a synthetic population of size nodes, each told apart by
// its net id.
func population(size int) []NodeInfo {
	nodes := make([]NodeInfo, size)
	for i := range nodes {
		nodes[i].net = int32(i)
	}
	return nodes
}

// checkSample fails t unless SampleNodes(nodes, n, seed) is the nodes at the
// first n positions of rand.Perm(len(nodes)) under seed: the whole
// population, in order, from its size on, and an empty sample for n <= 0.
func checkSample(t *testing.T, nodes []NodeInfo, n int, seed int64) {
	t.Helper()
	got := SampleNodes(nodes, n, seed)
	want := nodes
	switch {
	case n <= 0:
		want = []NodeInfo{}
	case n < len(nodes):
		want = make([]NodeInfo, n)
		for i, j := range rand.New(rand.NewSource(seed)).Perm(len(nodes))[:n] {
			want[i] = nodes[j]
		}
	}
	if got == nil || len(got) != len(want) {
		t.Fatalf("SampleNodes(%d of %d, seed %d) has %d nodes, want %d", n, len(nodes), seed, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("SampleNodes(%d of %d, seed %d)[%d] = %v, want %v: not the nodes at Perm's first %d positions",
				n, len(nodes), seed, i, got[i], want[i], n)
		}
	}
}

// FuzzSampleNodes holds the sample of a synthetic population of any size to
// rand.Perm's prefix under any seed.
func FuzzSampleNodes(f *testing.F) {
	sizes := []int{1, 2, 63, 64, 65, 4096, len(design().nodesOf(TargetIU)), len(design().nodesOf(TargetCMEM))}
	for _, seed := range sampleSeeds {
		for _, size := range sizes {
			f.Add(seed, size/2, uint16(size))
			f.Add(seed, size-1, uint16(size))
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, n int, size uint16) {
		checkSample(t, population(int(size)), n, seed)
	})
}

// TestInt31nMatchesRand holds the in-place draw — the stream's Int31, its
// remainder by reciprocal and its rejection — to rand.Int31n on moduli no
// population reaches: every power of two, which never rejects; every modulus
// within 1,000 of 2³¹, where nearly every draw computes the rejection
// threshold; and the 1,000 above 2³⁰, where about half the draws are
// rejected.
func TestInt31nMatchesRand(t *testing.T) {
	var moduli []uint32
	for m := uint32(1); m < 1<<31; m *= 2 {
		moduli = append(moduli, m)
	}
	for d := uint32(1); d <= 1000; d++ {
		moduli = append(moduli, 1<<31-d, 1<<30+d)
	}
	for _, seed := range append(sampleSeeds, 1, 7, 999) {
		rng := rand.New(rand.NewSource(seed))
		var s stream
		s.seed(seed, cooked())
		k := len(s)
		rejected := 0
		for _, m := range moduli {
			r := reciprocal(m)
			var j uint32
			for ok := false; !ok; k++ {
				if k == len(s) {
					s.refill()
					k = 0
				}
				v := int31(s[k])
				if ok = !rejects(v, m, r); ok {
					j = fastmod(v, r, m)
				} else {
					rejected++
				}
			}
			if want := rng.Int31n(int32(m)); j != uint32(want) {
				t.Fatalf("seed %d: Int31n(%d) = %d in place, %d by math/rand", seed, m, j, want)
			}
		}
		if rejected == 0 {
			t.Errorf("seed %d: no draw was rejected; the rejection path went untested", seed)
		}
	}
}

// TestCookedTableMatchesSource holds the seeding table recovered from
// math/rand, and the seeding that uses it, to math/rand's source: for 10,000
// seeds the in-place stream's first two blocks are rand.NewSource's first
// 1,214 Uint64 outputs.
func TestCookedTableMatchesSource(t *testing.T) {
	seeds := append([]int64{}, sampleSeeds...)
	for i := range 10_000 - len(sampleSeeds) {
		seeds = append(seeds, int64(splitmix64(uint64(i))))
	}
	for _, seed := range seeds {
		src := rand.NewSource(seed).(rand.Source64)
		var s stream
		s.seed(seed, cooked())
		for range 2 {
			s.refill()
			for k, x := range s {
				if want := src.Uint64(); x != want {
					t.Fatalf("seed %d: output %d is %#x in place, %#x by math/rand", seed, k, x, want)
				}
			}
		}
	}
}

// TestConcurrentSamples: goroutines sampling populations of different sizes
// at once, each growing the shared reciprocal table past the others, all draw
// rand.Perm's prefix.
func TestConcurrentSamples(t *testing.T) {
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for size := 100 + g; size < 3000; size += 397 {
				nodes := population(size)
				seed := int64(g*size + 1)
				want := rand.New(rand.NewSource(seed)).Perm(size)[:size/3]
				for i, got := range SampleNodes(nodes, size/3, seed) {
					if got.net != int32(want[i]) {
						t.Errorf("goroutine %d: SampleNodes(%d of %d, seed %d)[%d] = node %d, want %d", g, size/3, size, seed, i, got.net, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestSampleAllocations: a sample allocates its index and its result and
// nothing else — no source, no Rand.
func TestSampleAllocations(t *testing.T) {
	nodes := design().nodesOf(TargetIU)
	SampleNodes(nodes, 48, 1) // the seeding and reciprocal tables
	if a := testing.AllocsPerRun(20, func() { SampleNodes(nodes, 48, 1) }); a != 2 {
		t.Errorf("SampleNodes allocates %v objects, want 2", a)
	}
}

// TestSampleIntoKeptStorage: a sample written over a kept array — one that
// held a larger sample of another seed — is SampleNodes' sample, in the
// array's storage, and allocates only its index; one that does not fit
// gets fresh storage, and a sample of the whole population is the
// population.
func TestSampleIntoKeptStorage(t *testing.T) {
	nodes := design().nodesOf(TargetIU)
	kept := SampleNodes(nodes, 96, 2)
	got := SampleNodesInto(kept, nodes, 48, 1)
	if &got[0] != &kept[0] {
		t.Error("a sample that fits was not written over the kept array")
	}
	want := SampleNodes(nodes, 48, 1)
	if len(got) != len(want) {
		t.Fatalf("%d nodes, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("node %d is %v over the kept array, %v fresh", i, got[i], want[i])
		}
	}
	if grown := SampleNodesInto(kept[:4:4], nodes, 48, 1); &grown[0] == &kept[0] || len(grown) != 48 {
		t.Error("a sample that does not fit was written over the kept array")
	}
	if all := SampleNodesInto(kept, nodes, len(nodes), 1); &all[0] != &nodes[0] {
		t.Error("a sample of the whole population is not the population")
	}
	if a := testing.AllocsPerRun(20, func() { SampleNodesInto(kept, nodes, 48, 1) }); a != 1 {
		t.Errorf("SampleNodesInto over room allocates %v objects, want 1 (its index)", a)
	}
}

// BenchmarkSampleNodes draws a 48-node sample of the IU population, a
// hybrid_audit campaign's: in place, and as math/rand draws it.
func BenchmarkSampleNodes(b *testing.B) {
	nodes := design().nodesOf(TargetIU)
	for _, bc := range []struct {
		name   string
		sample func([]NodeInfo, int, int64) []NodeInfo
	}{{"inplace", SampleNodes}, {"mathrand", mathrandSample}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			seed := int64(0)
			for b.Loop() {
				bc.sample(nodes, 48, seed)
				seed++
			}
		})
	}
}
