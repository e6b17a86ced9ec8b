package fault

import (
	"cmp"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/obs"
	"repro/internal/rtl"
	"repro/internal/workloads"
)

// futureCampaigns returns the known-future tests' two campaigns on rspeed's
// IU: upsets and 2-cycle glitches, A on 256 nodes at seed 1, B on the same
// nodes and 32 more at seed 2 — so B's universes meet states A's passed
// through, at instants of their own — on a fresh runner, with the
// from-reset reference's results for both (computed once per process).
func futureCampaigns(t *testing.T) (prod *Runner, reg *obs.Registry, a, b []Experiment, wantA, wantB []Result) {
	t.Helper()
	w, err := workloads.Build("rspeed", workloads.Config{Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	reg = obs.NewRegistry()
	prod, ref := enginePair(t, w.Program, Options{InjectAtFraction: 0.5, PulseCycles: 2, Obs: reg})
	nodesA := SampleNodes(Nodes(TargetIU), 256, 1)
	nodesB := append(append([]NodeInfo(nil), nodesA...), SampleNodes(Nodes(TargetIU), 32, 2)...)
	a, b = Expand(nodesA, rtl.BitFlip, rtl.SETPulse), Expand(nodesB, rtl.BitFlip, rtl.SETPulse)
	prod.ScheduleTransients(a, 1)
	prod.ScheduleTransients(b, 2)
	futureWant.once.Do(func() { futureWant.a, futureWant.b = ref.Campaign(a, 0), ref.Campaign(b, 0) })
	return prod, reg, a, b, futureWant.a, futureWant.b
}

// futureWant is the reference's results for futureCampaigns' A and B.
var futureWant struct {
	once sync.Once
	a, b []Result
}

// shards runs exps as n contiguous calls at once, one worker each, as a
// process's local shards do, and merges their results in input order.
func shards(r *Runner, exps []Experiment, n int) []Result {
	out := make([]Result, len(exps))
	var wg sync.WaitGroup
	for k := range n {
		lo, hi := k*len(exps)/n, (k+1)*len(exps)/n
		wg.Add(1)
		go func() {
			defer wg.Done()
			copy(out[lo:hi], r.Campaign(exps[lo:hi], 1))
		}()
	}
	wg.Wait()
	return out
}

// TestKnownFutures holds universes finalized from the runner's table of
// known futures to the from-reset reference. Campaign A warms a runner;
// campaign B — another seed, overlapping nodes — runs on it, and then runs
// again, at one and two workers and as four in-process shards. Each B must
// equal the reference byte for byte and take some of its endings from the
// table (proof="future"): from A's universes the first time, from its own
// and A's the second, when every universe that parks finds the first state
// it parks in.
func TestKnownFutures(t *testing.T) {
	for _, mode := range []string{"1 worker", "2 workers", "4 shards"} {
		t.Run(mode, func(t *testing.T) {
			prod, reg, a, b, _, want := futureCampaigns(t)
			run := func() []Result {
				switch mode {
				case "1 worker":
					return prod.Campaign(b, 1)
				case "2 workers":
					return prod.Campaign(b, 2)
				}
				return shards(prod, b, 4)
			}
			prod.Campaign(a, 2)
			for _, round := range []string{"after A", "again"} {
				before := proofCounts(t, reg)
				got := run()
				n := sub(proofCounts(t, reg), before)
				if !reflect.DeepEqual(got, want) {
					for i := range want {
						if got[i] != want[i] {
							t.Errorf("%s: %v %v@%d: got %+v, reference %+v", round, b[i].Model, b[i].Node.Node, b[i].AtCycle, got[i], want[i])
						}
					}
					t.Fatalf("%s: campaign B differs from the from-reset reference", round)
				}
				t.Logf("%s: %v known futures, %v faulted cycles", round, n[provenFuture], n[faultedCycles])
				if n[provenFuture] == 0 {
					t.Errorf("%s: no universe of B took a known future", round)
				}
			}
		})
	}
}

// TestKnownFuturesRace runs overlapping campaigns on one runner at once, so
// that calls store and look up futures while others do (run it under
// -race): each must equal the reference, whatever the others had stored.
func TestKnownFuturesRace(t *testing.T) {
	prod, reg, a, b, wantA, wantB := futureCampaigns(t)
	// Four campaigns, a half of A or of B each, twice over.
	exps := [][]Experiment{a[:len(a)/2], a[len(a)/2:], b[:len(b)/2], b[len(b)/2:]}
	want := [][]Result{wantA[:len(a)/2], wantA[len(a)/2:], wantB[:len(b)/2], wantB[len(b)/2:]}
	for round := range 2 {
		var wg sync.WaitGroup
		errs := make([]error, len(exps))
		for i, e := range exps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := prod.Campaign(e, 2); !reflect.DeepEqual(got, want[i]) {
					errs[i] = fmt.Errorf("round %d, campaign %d differs from the from-reset reference", round, i)
				}
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				t.Error(err)
			}
		}
	}
	if n := proofCounts(t, reg); n[provenFuture] == 0 {
		t.Error("no universe took a known future")
	}
}

// TestKnownFutureTable pins the table's bound — 72-byte slots, 4.5 MiB at
// most, 288 KiB on the first store — that a lookup and a store allocate
// nothing once it is there and take nothing of their own call or of a lane
// outside one, that it drops no entry below its bound however it doubles,
// and that at the bound a full bucket gives its earliest call's slot away.
func TestKnownFutureTable(t *testing.T) {
	if size := unsafe.Sizeof(future{}); size != 72 || futureSlots*size > 6<<20 {
		t.Errorf("a slot is %d bytes, the table %d: over its 6 MiB", size, futureSlots*size)
	}
	r := &Runner{}
	eng := &engine{}
	eng.diff[0] = rtl.WordDiff{Index: 7, Mask: 1 << 3}
	l := &lane{injectAt: 100, call: 1}
	var res Result
	if r.known(eng, l, 5, 1, &res) || eng.nkeys != 1 {
		t.Fatalf("an empty table knew a future, or the key went unrecorded (%d)", eng.nkeys)
	}
	if r.futures.slots != nil {
		t.Fatal("a lookup allocated the table")
	}
	r.store(eng, l, &Result{Outcome: OutcomeMismatch, Latency: 40, Cycles: 150})
	if len(r.futures.slots) != futureFirst || eng.nkeys != 0 {
		t.Fatalf("a store left %d slots and %d keys recorded", len(r.futures.slots), eng.nkeys)
	}
	for _, c := range []struct {
		call, injectAt uint64
		rung           int
		hit            bool
	}{
		{1, 100, 5, false}, // its own call's
		{0, 100, 5, false}, // no call: RunOne
		{2, 100, 4, false}, // another rung
		{2, 120, 5, true},  // a later call, another instant: the same absolute event
	} {
		l := &lane{injectAt: c.injectAt, call: c.call}
		res = Result{}
		if got := r.known(eng, l, c.rung, 1, &res); got != c.hit {
			t.Errorf("call %d, rung %d: known %v, want %v", c.call, c.rung, got, c.hit)
		}
		if c.hit && res != (Result{Outcome: OutcomeMismatch, Latency: 20, Cycles: 150}) {
			t.Errorf("call %d: took %+v, want a mismatch at cycle 140 after 150 cycles", c.call, res)
		}
		eng.nkeys = 0
	}
	l = &lane{injectAt: 100, call: 3}
	if allocs := testing.AllocsPerRun(100, func() {
		r.known(eng, l, 6, 1, &res)
		r.store(eng, l, &Result{Outcome: OutcomeNoEffect, Latency: -1, Cycles: 150})
	}); allocs != 0 {
		t.Errorf("a lookup and a store allocate %v objects", allocs)
	}

	// Keys of one word each, one a call, until the table is at its bound and
	// one bucket there is full: every key is still found, the full bucket's
	// earliest entry is the one the next key in it takes the slot of.
	var words []int32
	call := uint64(10)
	for w := int32(1000); ; w++ {
		eng.diff[0] = rtl.WordDiff{Index: w, Mask: 1}
		l := &lane{call: call}
		r.known(eng, l, 0, 1, &res)
		if len(r.futures.slots) == futureSlots && full(bucket(r.futures.slots, &eng.keys[0].key, 0)) {
			eng.nkeys = 0
			break
		}
		r.store(eng, l, &Result{Outcome: OutcomeNoEffect, Latency: -1, Cycles: 150})
		words, call = append(words, w), call+1
	}
	late := &lane{call: call + 1}
	for _, w := range words {
		eng.diff[0] = rtl.WordDiff{Index: w, Mask: 1}
		if !r.known(eng, late, 0, 1, &res) {
			t.Fatalf("word %d's future lost below the bound", w)
		}
	}
	last := words[len(words)-1] + 1
	eng.diff[0] = rtl.WordDiff{Index: last, Mask: 1}
	r.known(eng, &lane{call: call}, 0, 1, &res)
	b := bucket(r.futures.slots, &eng.keys[0].key, 0)
	earliest := slices.MinFunc(b, func(x, y future) int { return cmp.Compare(x.call, y.call) })
	r.store(eng, &lane{call: call}, &Result{Outcome: OutcomeNoEffect, Latency: -1, Cycles: 150})
	if len(r.futures.slots) != futureSlots {
		t.Errorf("the table grew to %d slots, past its %d", len(r.futures.slots), futureSlots)
	}
	for _, w := range []int32{last, earliest.key.word[0]} {
		eng.diff[0] = rtl.WordDiff{Index: w, Mask: 1}
		if got, want := r.known(eng, late, 0, 1, &res), w == last; got != want {
			t.Errorf("word %d known %v at the bound, want %v", w, got, want)
		}
	}
}

// full reports whether every slot of bucket b holds an entry.
func full(b []future) bool {
	return !slices.ContainsFunc(b, func(f future) bool { return f.call == 0 })
}

// TestKnownFuturesOfGlitches runs wide glitches on the operand, destination
// and immediate registers of RA and EX at their instants and then a cycle
// earlier, on one runner. The earlier glitch's universe often reaches the
// state the later one parked in while its own forcing still holds: a state
// is a known future only once nothing is armed, since the forcing's
// remaining cycles are not in the key. Every campaign must equal the
// reference.
func TestKnownFuturesOfGlitches(t *testing.T) {
	for _, tc := range []struct {
		workload string
		pulse    uint64
	}{{"rspeed", 8}, {"excerptA", 4}} {
		t.Run(tc.workload, func(t *testing.T) {
			w, err := workloads.Build(tc.workload, workloads.Config{Iterations: 1})
			if err != nil {
				t.Fatal(err)
			}
			reg := obs.NewRegistry()
			prod, ref := enginePair(t, w.Program, Options{InjectAtFraction: 0.3, PulseCycles: tc.pulse, Obs: reg})
			nodes := signalNodes(prod, "iu.ra.op1", "iu.ex.rd", "iu.ra.simm")
			for seed := int64(1); seed <= 4; seed++ {
				exps := Expand(nodes, rtl.SETPulse)
				prod.ScheduleTransients(exps, seed)
				for _, earlier := range []uint64{0, 1} {
					for i := range exps {
						exps[i].AtCycle -= earlier
					}
					if got, want := prod.Campaign(exps, 2), ref.Campaign(exps, 0); !reflect.DeepEqual(got, want) {
						for i := range want {
							if got[i] != want[i] {
								t.Errorf("seed %d, %d earlier: %v %v@%d: got %+v, reference %+v", seed, earlier, exps[i].Model, exps[i].Node.Node, exps[i].AtCycle, got[i], want[i])
							}
						}
					}
				}
			}
			if n := proofCounts(t, reg); n[provenFuture] == 0 {
				t.Error("no glitch took a known future")
			}
		})
	}
}
