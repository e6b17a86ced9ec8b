package campaign

import (
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// TestTallyFoldExact pins the merge semantics the shard layer relies on:
// folding any partition of per-experiment tallies reproduces the global
// tally exactly, independent of fold order.
func TestTallyFoldExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(500)
		outcomes := make([]bool, n) // true = failure
		want := Tally{}
		for i := range outcomes {
			outcomes[i] = rng.Intn(3) == 0
			want.Done++
			if outcomes[i] {
				want.Failures++
			}
		}
		// Random partition into contiguous shards, folded in random order.
		var shards []Tally
		for start := 0; start < n; {
			end := start + 1 + rng.Intn(n-start)
			sh := Tally{}
			for i := start; i < end; i++ {
				sh.Done++
				if outcomes[i] {
					sh.Failures++
				}
			}
			shards = append(shards, sh)
			start = end
		}
		rng.Shuffle(len(shards), func(i, j int) { shards[i], shards[j] = shards[j], shards[i] })
		got := Tally{}
		for _, sh := range shards {
			got.Add(sh)
		}
		if got != want {
			t.Fatalf("trial %d: folded %+v, want %+v", trial, got, want)
		}
	}
}

// TestTallyEstimateDistinguishesNoData pins the progressive-progress
// contract: a record with Done==0 reports Pf 0 with the vacuous (0,1)
// Wilson interval, while a genuine zero-failure estimate reports Pf 0
// with an interval that tightens around 0 — so NDJSON consumers can tell
// "no data yet" from "no failures observed".
func TestTallyEstimateDistinguishesNoData(t *testing.T) {
	pf, lo, hi := Tally{}.Estimate(stats.Z95)
	if pf != 0 || lo != 0 || hi != 1 {
		t.Fatalf("empty tally estimate = (%v, %v, %v), want (0, 0, 1)", pf, lo, hi)
	}
	pf, lo, hi = Tally{Done: 200}.Estimate(stats.Z95)
	if pf != 0 || lo != 0 {
		t.Fatalf("zero-failure estimate = (%v, %v, %v), want pf=lo=0", pf, lo, hi)
	}
	if hi >= 0.5 {
		t.Fatalf("200 clean experiments still report hi=%v; indistinguishable from no data", hi)
	}
	if _, _, vacuous := (Tally{}).Estimate(stats.Z95); vacuous == hi {
		t.Fatal("no-data and zero-failure estimates are indistinguishable")
	}
}

func TestTallyStats(t *testing.T) {
	tl := Tally{Done: 100, Failures: 25}
	if pf := tl.Pf(); pf != 0.25 {
		t.Errorf("Pf = %v, want 0.25", pf)
	}
	lo, hi := tl.Interval(stats.Z95)
	wlo, whi := stats.WilsonCI(25, 100, stats.Z95)
	if lo != wlo || hi != whi {
		t.Errorf("Interval = [%v, %v], want [%v, %v]", lo, hi, wlo, whi)
	}
	if hw := tl.HalfWidth(stats.Z95); hw != (whi-wlo)/2 {
		t.Errorf("HalfWidth = %v, want %v", hw, (whi-wlo)/2)
	}
	if (Tally{}).Pf() != 0 {
		t.Error("empty tally Pf != 0")
	}
}

func TestTallyConverged(t *testing.T) {
	tl := Tally{Done: 400, Failures: 100}
	hw := tl.HalfWidth(stats.Z95) // ~0.042
	if !tl.Converged(hw+0.001, stats.Z95) {
		t.Error("tally should converge at epsilon above its half-width")
	}
	if tl.Converged(hw-0.001, stats.Z95) {
		t.Error("tally converged at epsilon below its half-width")
	}
	// epsilon <= 0 disables the rule, and an empty tally never converges
	// (its vacuous interval would otherwise stop at huge epsilon).
	if tl.Converged(0, stats.Z95) {
		t.Error("epsilon 0 must disable the stop rule")
	}
	if (Tally{}).Converged(0.6, stats.Z95) {
		t.Error("empty tally must not converge")
	}
}
